package collect

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"eventspace/internal/metrics"
	"eventspace/internal/paths"
	"eventspace/internal/vclock"
	"eventspace/internal/vnet"
)

// testHost returns a host on a fresh network and runs the rest of the
// test on the discrete-event clock, so collector stamps are modelled
// time. Goroutines the test starts go through vclock.Go.
func testHost(t *testing.T) *vnet.Host {
	t.Helper()
	vclock.Enable(0, vclock.DefaultSeed)
	t.Cleanup(func() {
		vclock.Quiesce(10 * time.Second)
		vclock.Disable()
	})
	return wallHost(t)
}

// wallHost is a two-slot standalone host on the wall clock, for a test
// whose subject is a real race: with the clock off, GOMAXPROCS keeps its
// default and plain goroutines run in parallel.
func wallHost(t *testing.T) *vnet.Host {
	t.Helper()
	n := vnet.NewNetwork(vnet.FastEthernet, vnet.DefaultCostModel())
	h, err := n.AddStandaloneHost("h", 2)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestTupleCodecRoundTrip(t *testing.T) {
	in := TraceTuple{ECID: 7, Op: paths.OpWrite, Ret: -3, Seq: 12345, Start: 1111, End: 2222}
	out, err := Decode(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

func TestQuickTupleCodec(t *testing.T) {
	f := func(id uint32, op uint16, ret int16, seq uint32, start, end int64) bool {
		in := TraceTuple{ECID: id, Op: paths.OpKind(op), Ret: ret, Seq: seq, Start: start, End: end}
		out, err := Decode(in.Encode())
		return err == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeShort(t *testing.T) {
	if _, err := Decode(make([]byte, TupleSize-1)); err == nil {
		t.Fatal("short tuple accepted")
	}
}

func TestDecodeAll(t *testing.T) {
	a := TraceTuple{ECID: 1, Seq: 0}
	b := TraceTuple{ECID: 2, Seq: 1}
	buf := append(a.Encode(), b.Encode()...)
	got, err := DecodeAll(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("DecodeAll = %+v", got)
	}
	if _, err := DecodeAll(buf[:30]); err == nil {
		t.Fatal("ragged payload accepted")
	}
	if got, err := DecodeAll(nil); err != nil || len(got) != 0 {
		t.Fatalf("empty payload: %v %v", got, err)
	}
}

func TestDecodeAllPartial(t *testing.T) {
	a := TraceTuple{ECID: 1, Seq: 0}
	b := TraceTuple{ECID: 2, Seq: 1}
	whole := append(a.Encode(), b.Encode()...)
	cases := []struct {
		name      string
		buf       []byte
		wantN     int
		wantOff   int
		wantRem   int
		wantWhole []TraceTuple
	}{
		{name: "one byte", buf: whole[:1], wantN: 0, wantOff: 0, wantRem: 1},
		{name: "almost one tuple", buf: whole[:TupleSize-1], wantN: 0, wantOff: 0, wantRem: TupleSize - 1},
		{name: "one and a bit", buf: whole[:TupleSize+5], wantN: 1, wantOff: TupleSize, wantRem: 5,
			wantWhole: []TraceTuple{a}},
		{name: "two minus one byte", buf: whole[:2*TupleSize-1], wantN: 1, wantOff: TupleSize, wantRem: TupleSize - 1,
			wantWhole: []TraceTuple{a}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := DecodeAll(tc.buf)
			var pe *PartialTupleError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *PartialTupleError", err)
			}
			if pe.Offset != tc.wantOff || pe.Remaining != tc.wantRem {
				t.Fatalf("offset/remaining = %d/%d, want %d/%d", pe.Offset, pe.Remaining, tc.wantOff, tc.wantRem)
			}
			if len(got) != tc.wantN {
				t.Fatalf("prefix length = %d, want %d", len(got), tc.wantN)
			}
			for i, want := range tc.wantWhole {
				if got[i] != want {
					t.Fatalf("prefix[%d] = %+v, want %+v", i, got[i], want)
				}
			}
		})
	}
}

func TestRoleString(t *testing.T) {
	for r, want := range map[Role]string{
		RoleGeneric:     "generic",
		RoleContributor: "contributor",
		RoleCollective:  "collective",
		RoleStubClient:  "stub-client",
		RoleStubServer:  "stub-server",
		Role(42):        "role(42)",
	} {
		if r.String() != want {
			t.Fatalf("%d.String() = %q, want %q", r, r.String(), want)
		}
	}
}

func TestCollectorRecordsTuples(t *testing.T) {
	h := testHost(t)
	reg := NewRegistry()
	inner := paths.NewFunc("inner", h, func(ctx *paths.Ctx, req paths.Request) (paths.Reply, error) {
		return paths.Reply{Value: req.Value, Ret: 9}, nil
	})
	ec, err := reg.New("ec1", h, Meta{Role: RoleContributor, Tree: "T", Node: "ar0", Contributor: 2}, inner, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		rep, err := ec.Op(&paths.Ctx{Thread: "t"}, paths.Request{Kind: paths.OpWrite, Value: int64(i)})
		if err != nil || rep.Value != int64(i) {
			t.Fatalf("op %d: %+v %v", i, rep, err)
		}
	}
	if ec.Buffer().Stats().Written != 5 {
		t.Fatalf("recorded %d tuples", ec.Buffer().Stats().Written)
	}
	raw, n, err := ec.Buffer().NewCursor().DrainBytesInto(nil, 0, TupleSize)
	if err != nil || n != 5 {
		t.Fatalf("drained %d tuples, %v", n, err)
	}
	for i := 0; i < 5; i++ {
		tu, err := Decode(raw[i*TupleSize:])
		if err != nil {
			t.Fatal(err)
		}
		if tu.ECID != ec.ID() || tu.Seq != uint32(i) || tu.Op != paths.OpWrite || tu.Ret != 9 {
			t.Fatalf("tuple %d = %+v", i, tu)
		}
		if tu.End < tu.Start {
			t.Fatalf("tuple %d: end %d < start %d", i, tu.End, tu.Start)
		}
	}
	if ec.Meta().Contributor != 2 || ec.Meta().Tree != "T" {
		t.Fatalf("meta = %+v", ec.Meta())
	}
}

func TestCollectorRecordsErrors(t *testing.T) {
	h := testHost(t)
	reg := NewRegistry()
	inner := paths.NewFunc("fail", h, func(ctx *paths.Ctx, req paths.Request) (paths.Reply, error) {
		return paths.Reply{}, errors.New("boom")
	})
	ec, err := reg.New("ec", h, Meta{}, inner, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ec.Op(nil, paths.Request{Kind: paths.OpRead}); err == nil {
		t.Fatal("error swallowed")
	}
	raw, _ := ec.Buffer().Latest(nil)
	tu, _ := Decode(raw)
	if tu.Ret != -1 {
		t.Fatalf("error tuple Ret = %d, want -1", tu.Ret)
	}
	if tu.Op != paths.OpRead {
		t.Fatalf("error tuple Op = %v", tu.Op)
	}
}

func TestCollectorDisable(t *testing.T) {
	h := testHost(t)
	reg := NewRegistry()
	inner := paths.NewFunc("inner", h, func(ctx *paths.Ctx, req paths.Request) (paths.Reply, error) {
		return paths.Reply{}, nil
	})
	ec, _ := reg.New("ec", h, Meta{}, inner, 4)
	ec.SetEnabled(false)
	for i := 0; i < 3; i++ {
		if _, err := ec.Op(nil, paths.Request{Kind: paths.OpWrite}); err != nil {
			t.Fatal(err)
		}
	}
	if ec.Buffer().Stats().Written != 0 {
		t.Fatal("disabled collector recorded tuples")
	}
	ec.SetEnabled(true)
	ec.Op(nil, paths.Request{Kind: paths.OpWrite})
	if ec.Buffer().Stats().Written != 1 {
		t.Fatal("re-enabled collector did not record")
	}
}

func TestCollectorClosedBufferDoesNotFailOp(t *testing.T) {
	h := testHost(t)
	reg := NewRegistry()
	inner := paths.NewFunc("inner", h, func(ctx *paths.Ctx, req paths.Request) (paths.Reply, error) {
		return paths.Reply{Value: 1}, nil
	})
	ec, _ := reg.New("ec", h, Meta{}, inner, 4)
	ec.Buffer().Close()
	rep, err := ec.Op(nil, paths.Request{Kind: paths.OpWrite})
	if err != nil || rep.Value != 1 {
		t.Fatalf("op through closed buffer: %+v %v", rep, err)
	}
}

func TestRegistryLookupAndEnumeration(t *testing.T) {
	h := testHost(t)
	reg := NewRegistry()
	inner := paths.NewFunc("inner", h, func(ctx *paths.Ctx, req paths.Request) (paths.Reply, error) {
		return paths.Reply{}, nil
	})
	var ids []uint32
	for i := 0; i < 4; i++ {
		ec, err := reg.New("ec"+string(rune('a'+i)), h, Meta{}, inner, 4)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ec.ID())
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("ids not increasing: %v", ids)
		}
	}
	if _, ok := reg.ByID(ids[2]); !ok {
		t.Fatal("ByID missed a collector")
	}
	if _, ok := reg.ByID(9999); ok {
		t.Fatal("ByID found a ghost")
	}
	if got := reg.All(); len(got) != 4 {
		t.Fatalf("All() = %d collectors", len(got))
	}
	for _, ec := range reg.All() {
		ec.SetEnabled(false)
		ec.Op(nil, paths.Request{Kind: paths.OpWrite})
		if ec.Buffer().Stats().Written != 0 {
			t.Fatal("SetEnabled(false) did not disable")
		}
	}
}

func TestRegistryRejectsNilNextAndDupBuffer(t *testing.T) {
	h := testHost(t)
	reg := NewRegistry()
	if _, err := reg.New("x", h, Meta{}, nil, 4); err == nil {
		t.Fatal("nil next accepted")
	}
	inner := paths.NewFunc("inner", h, func(ctx *paths.Ctx, req paths.Request) (paths.Reply, error) {
		return paths.Reply{}, nil
	})
	if _, err := reg.New("dup", h, Meta{}, inner, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.New("dup", h, Meta{}, inner, 4); err == nil {
		t.Fatal("duplicate collector name on one host accepted")
	}
}

// TestCollectorWritePathZeroAlloc is the allocation regression gate for
// the recording hot path (ISSUE 7): an enabled collector's Op — encode,
// buffer write, ring overwrite — must not allocate, with or without the
// self-metrics site attached. The CI bench gate checks the same property
// through -benchmem; this test makes plain `go test` fail on a
// regression too.
func TestCollectorWritePathZeroAlloc(t *testing.T) {
	n := vnet.NewNetwork(vnet.FastEthernet, vnet.DefaultCostModel())
	h, _ := n.AddStandaloneHost("bench", 2)
	reg := NewRegistry()
	inner := paths.NewFunc("inner", h, func(ctx *paths.Ctx, req paths.Request) (paths.Reply, error) {
		return paths.Reply{}, nil
	})
	// A small buffer forces ring overwrites inside the measured loop, so
	// the steady overwrite path is covered, not just the filling phase.
	ec, err := reg.New("ec", h, Meta{}, inner, 64)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &paths.Ctx{Thread: "bench"}
	req := paths.Request{Kind: paths.OpWrite, Value: 1}
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := ec.Op(ctx, req); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("collector write path allocates %.2f allocs/op, want 0", avg)
	}
	reg.UseMetrics(metrics.New())
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := ec.Op(ctx, req); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("collector write path with metrics allocates %.2f allocs/op, want 0", avg)
	}
}

func TestDecodeAppendReusesCapacity(t *testing.T) {
	a := TraceTuple{ECID: 1, Seq: 0, Start: 10, End: 20}
	b := TraceTuple{ECID: 2, Seq: 1, Start: 30, End: 40}
	buf := append(a.Encode(), b.Encode()...)
	batch, err := DecodeAppend(nil, buf)
	if err != nil || len(batch) != 2 || batch[0] != a || batch[1] != b {
		t.Fatalf("DecodeAppend = %+v, %v", batch, err)
	}
	// Reusing the batch must not allocate once capacity has grown.
	if avg := testing.AllocsPerRun(100, func() {
		var err error
		batch, err = DecodeAppend(batch[:0], buf)
		if err != nil || len(batch) != 2 {
			t.Fatalf("DecodeAppend reuse = %+v, %v", batch, err)
		}
	}); avg != 0 {
		t.Fatalf("DecodeAppend with warm batch allocates %.2f allocs/op", avg)
	}
	// A partial tail still appends the whole prefix.
	batch, err = DecodeAppend(batch[:0], buf[:TupleSize+5])
	var pe *PartialTupleError
	if !errors.As(err, &pe) || len(batch) != 1 || batch[0] != a {
		t.Fatalf("partial DecodeAppend = %+v, %v", batch, err)
	}
}

// TestDecodeAppendMatchesDecode holds the in-place batch decode to
// per-tuple Decode and append: seeded payloads of every length from
// empty to a few tuples past a whole number (ragged tails included),
// appended behind a non-empty dst both with and without spare capacity.
func TestDecodeAppendMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	payload := make([]byte, 9*TupleSize)
	rng.Read(payload)
	head := []TraceTuple{{ECID: 7, Seq: 1, Start: -3, End: 9}}
	for n := 0; n <= len(payload); n++ {
		buf := payload[:n]
		want := append([]TraceTuple(nil), head...)
		for off := 0; off+TupleSize <= n; off += TupleSize {
			tu, err := Decode(buf[off:])
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, tu)
		}
		for _, spare := range []int{0, 16} {
			dst := append(make([]TraceTuple, 0, len(head)+spare), head...)
			got, err := DecodeAppend(dst, buf)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d spare=%d: DecodeAppend diverged from per-tuple Decode", n, spare)
			}
			var pe *PartialTupleError
			switch rem := n % TupleSize; {
			case rem == 0 && err != nil:
				t.Fatalf("n=%d: whole payload reported %v", n, err)
			case rem != 0 && (!errors.As(err, &pe) || pe.Offset != n-rem || pe.Remaining != rem):
				t.Fatalf("n=%d: ragged tail reported %v, want offset %d remaining %d", n, err, n-rem, rem)
			}
		}
	}
}

// BenchmarkEventCollectorWrite measures the real cost an event collector
// adds to a PastSet operation — the paper's 1.1 µs figure (section 6.1).
func BenchmarkEventCollectorWrite(b *testing.B) {
	n := vnet.NewNetwork(vnet.FastEthernet, vnet.DefaultCostModel())
	h, _ := n.AddStandaloneHost("bench", 2)
	reg := NewRegistry()
	inner := paths.NewFunc("inner", h, func(ctx *paths.Ctx, req paths.Request) (paths.Reply, error) {
		return paths.Reply{}, nil
	})
	ec, _ := reg.New("ec", h, Meta{}, inner, 3750)
	ctx := &paths.Ctx{Thread: "bench"}
	req := paths.Request{Kind: paths.OpWrite, Value: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ec.Op(ctx, req)
	}
}

// BenchmarkEventCollectorWriteWithMetrics measures the same write with
// the self-metrics site attached — the cost of monitoring the monitor.
func BenchmarkEventCollectorWriteWithMetrics(b *testing.B) {
	n := vnet.NewNetwork(vnet.FastEthernet, vnet.DefaultCostModel())
	h, _ := n.AddStandaloneHost("bench", 2)
	reg := NewRegistry()
	reg.UseMetrics(metrics.New())
	inner := paths.NewFunc("inner", h, func(ctx *paths.Ctx, req paths.Request) (paths.Reply, error) {
		return paths.Reply{}, nil
	})
	ec, _ := reg.New("ec", h, Meta{}, inner, 3750)
	ctx := &paths.Ctx{Thread: "bench"}
	req := paths.Request{Kind: paths.OpWrite, Value: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ec.Op(ctx, req)
	}
}

func TestCollectorSelfMetrics(t *testing.T) {
	h := testHost(t)
	reg := NewRegistry()
	mr := metrics.New()
	reg.UseMetrics(mr)
	inner := paths.NewFunc("inner", h, func(ctx *paths.Ctx, req paths.Request) (paths.Reply, error) {
		return paths.Reply{}, nil
	})
	ec, err := reg.New("ec-met", h, Meta{}, inner, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := ec.Op(&paths.Ctx{}, paths.Request{Kind: paths.OpWrite}); err != nil {
			t.Fatal(err)
		}
	}
	snap := mr.Snapshot()
	sites := snap.ByKind(metrics.KindCollector)
	if len(sites) != 1 || sites[0].Name != "ec-met" {
		t.Fatalf("collector sites = %+v", sites)
	}
	if sites[0].Ops != 3 || sites[0].Lat.Count != 1 || sites[0].Bytes != 3*TupleSize {
		t.Fatalf("site = %+v, want 3 writes of %d bytes", sites[0], TupleSize)
	}
	// Counts stay exact while only the writes whose sequence number is
	// a multiple of latencySample are timed.
	for _, c := range []struct{ writes, timed uint64 }{{64, 1}, {65, 2}, {129, 3}} {
		mr := metrics.New()
		reg := NewRegistry()
		reg.UseMetrics(mr)
		ec, err := reg.New(fmt.Sprintf("ec-sampled-%d", c.writes), h, Meta{}, inner, 256)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < c.writes; i++ {
			if _, err := ec.Op(&paths.Ctx{}, paths.Request{Kind: paths.OpWrite}); err != nil {
				t.Fatal(err)
			}
		}
		got := mr.Snapshot().ByKind(metrics.KindCollector)[0]
		if got.Ops != c.writes || got.Bytes != c.writes*TupleSize || got.Lat.Count != c.timed {
			t.Fatalf("%d writes: site = %+v, want %d timed", c.writes, got, c.timed)
		}
	}
	// UseMetrics also wires collectors that already exist, and nil
	// detaches them.
	reg2 := NewRegistry()
	ec2, err := reg2.New("ec-late", h, Meta{}, inner, 16)
	if err != nil {
		t.Fatal(err)
	}
	mr2 := metrics.New()
	reg2.UseMetrics(mr2)
	if _, err := ec2.Op(&paths.Ctx{}, paths.Request{Kind: paths.OpWrite}); err != nil {
		t.Fatal(err)
	}
	if got := mr2.Snapshot().ByKind(metrics.KindCollector); len(got) != 1 || got[0].Ops != 1 {
		t.Fatalf("late-wired collector sites = %+v", got)
	}
	reg2.UseMetrics(nil)
	if _, err := ec2.Op(&paths.Ctx{}, paths.Request{Kind: paths.OpWrite}); err != nil {
		t.Fatal(err)
	}
	if got := mr2.Snapshot().ByKind(metrics.KindCollector); got[0].Ops != 1 {
		t.Fatalf("detached collector still recorded: %+v", got)
	}
}

// drainSeqs returns the Seq of every tuple in ec's trace buffer.
func drainSeqs(t *testing.T, ec *EventCollector) []uint32 {
	t.Helper()
	raw, _, err := ec.Buffer().NewCursor().DrainBytesInto(nil, 0, TupleSize)
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := DecodeAll(raw)
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([]uint32, len(tuples))
	for i, tu := range tuples {
		seqs[i] = tu.Seq
	}
	return seqs
}

func TestCollectorSelfMetricsConcurrent(t *testing.T) {
	const writers, per = 4, 10000
	h := testHost(t)
	mr := metrics.New()
	reg := NewRegistry()
	reg.UseMetrics(mr)
	inner := paths.NewFunc("inner", h, func(ctx *paths.Ctx, req paths.Request) (paths.Reply, error) {
		return paths.Reply{}, nil
	})
	ec, err := reg.New("ec-conc", h, Meta{}, inner, writers*per)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		vclock.Go(func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := ec.Op(&paths.Ctx{}, paths.Request{Kind: paths.OpWrite}); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	wg.Wait()
	got := mr.Snapshot().ByKind(metrics.KindCollector)[0]
	if got.Ops != writers*per || got.Bytes != writers*per*TupleSize || got.Lat.Count != writers*per/latencySample {
		t.Fatalf("site = %+v, want %d writes, %d timed", got, writers*per, writers*per/latencySample)
	}
	seqs := drainSeqs(t, ec)
	if len(seqs) != writers*per {
		t.Fatalf("buffer holds %d tuples, want %d", len(seqs), writers*per)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for i, s := range seqs {
		if s != uint32(i) {
			t.Fatalf("sorted seq[%d] = %d: not a permutation of 0..%d", i, s, writers*per-1)
		}
	}
}

// TestCollectorSelfMetricsSeqWrap crosses the tuple's 32-bit sequence
// boundary: the tuples wrap, the site's count does not.
func TestCollectorSelfMetricsSeqWrap(t *testing.T) {
	h := testHost(t)
	reg := NewRegistry()
	inner := paths.NewFunc("inner", h, func(ctx *paths.Ctx, req paths.Request) (paths.Reply, error) {
		return paths.Reply{}, nil
	})
	ec, err := reg.New("ec-wrap", h, Meta{}, inner, 16)
	if err != nil {
		t.Fatal(err)
	}
	ec.seq.Store(1<<32 - 2)
	mr := metrics.New()
	reg.UseMetrics(mr)
	for i := 0; i < 4; i++ {
		if _, err := ec.Op(&paths.Ctx{}, paths.Request{Kind: paths.OpWrite}); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := drainSeqs(t, ec), []uint32{0xFFFFFFFE, 0xFFFFFFFF, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("tuple seqs = %#x, want %#x", got, want)
	}
	if got := mr.Snapshot().ByKind(metrics.KindCollector)[0]; got.Ops != 4 || got.Bytes != 4*TupleSize {
		t.Fatalf("site = %+v, want 4 writes", got)
	}
}

// TestCollectorSelfMetricsRegistryRace creates collectors while the
// registry's metrics are swapped underneath: every collector must end on
// the site of the registry's final metrics registry, and a collector
// created during a detach must not stay attached to the old one.
func TestCollectorSelfMetricsRegistryRace(t *testing.T) {
	const creators, per = 2, 200
	// The subject is a real race and the test models no delay, so it
	// runs on the wall clock: the swapper and the creators are plain
	// goroutines on every processor. On the virtual clock GOMAXPROCS is 1
	// and they would take turns in time slices, so a creator's calls
	// could all land between two swaps.
	h := wallHost(t)
	reg := NewRegistry()
	inner := paths.NewFunc("inner", h, func(ctx *paths.Ctx, req paths.Request) (paths.Reply, error) {
		return paths.Reply{}, nil
	})
	choices := []*metrics.Registry{nil, metrics.New(), metrics.New()}
	done := make(chan struct{})
	swapped := make(chan struct{})
	go func() {
		defer close(swapped)
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
				reg.UseMetrics(choices[i%len(choices)])
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < creators; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := reg.New(fmt.Sprintf("ec-%d-%d", c, i), h, Meta{}, inner, 4); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	<-swapped
	for _, ec := range reg.All() {
		if got, want := ec.met.Load(), reg.met.Op(metrics.KindCollector, ec.Name()); got != want {
			t.Fatalf("%s: attached to %p, registry's metrics give %p", ec.Name(), got, want)
		}
	}
}
