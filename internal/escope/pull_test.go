package escope

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eventspace/internal/cluster"
	"eventspace/internal/collect"
	"eventspace/internal/hrtime"
	"eventspace/internal/pastset"
	"eventspace/internal/paths"
	"eventspace/internal/vclock"
)

// pullRig is the repo benchmark's monitored side (benchmark/sut.go,
// newRecorder): an instrumented 8-way tree on 16 Tins and an archive-
// shaped scope over its 61 trace buffers on the in-process transport.
// It stays on the wall clock, whose subject here is real time and real
// allocation: modelled delays cost nothing there, so a pull costs what
// the read path itself costs.
type pullRig struct {
	scope *Scope
	bufs  []*pastset.Element
	ctx   *paths.Ctx
	seq   uint32
}

func newPullRig(tb testing.TB) *pullRig {
	tb.Helper()
	bed, err := cluster.NewTestbed(cluster.SingleTin(16))
	if err != nil {
		tb.Fatal(err)
	}
	tree, err := cluster.BuildTree(bed, cluster.TreeSpec{Name: "T1", Fanout: 8, ThreadsPerHost: 1, Instrument: true})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(tree.Close)
	r := &pullRig{ctx: &paths.Ctx{Thread: "bench/gather"}}
	spec := Spec{Name: "archive/T1", FrontEnd: bed.FrontEnd}
	for _, ec := range tree.Collectors.All() {
		r.bufs = append(r.bufs, ec.Buffer())
		spec.Sources = append(spec.Sources, Source{Host: ec.Host(), Elem: ec.Buffer(), RecSize: collect.TupleSize})
	}
	if r.scope, err = Build(bed.Net, spec); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(r.scope.Close)
	return r
}

// write adds rounds tuples to every trace buffer, one buffer after the
// other round by round, as the benchmark's generator interleaves them.
func (r *pullRig) write(tb testing.TB, rounds int) {
	var rec [collect.TupleSize]byte
	for i := 0; i < rounds; i++ {
		for id, buf := range r.bufs {
			r.seq++
			collect.TraceTuple{ECID: uint32(id + 1), Op: paths.OpWrite, Seq: r.seq, Start: int64(r.seq), End: int64(r.seq) + 70}.EncodeTo(rec[:])
			if _, err := buf.WriteCopy(rec[:]); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// pull gathers once and checks that everything written since the last
// pull arrived.
func (r *pullRig) pull(tb testing.TB, rounds int) paths.Reply {
	rep, err := r.scope.Pull(r.ctx)
	if err != nil || len(rep.Data) != rounds*len(r.bufs)*collect.TupleSize {
		tb.Fatalf("pull: %d bytes, %v; want %d tuples", len(rep.Data), err, rounds*len(r.bufs))
	}
	return rep
}

// measure reports what one warm write-and-pull cycle of the given size
// allocates, averaged over a few cycles; the writes allocate nothing.
func (r *pullRig) measure(tb testing.TB, rounds int) (allocsPerPull, bytesPerTuple float64) {
	const pulls = 8
	for warm := 0; warm < 3; warm++ { // every level's size guess settles on this batch size
		r.write(tb, rounds)
		r.pull(tb, rounds)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pulls; i++ {
		r.write(tb, rounds)
		r.pull(tb, rounds)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / pulls,
		float64(after.TotalAlloc-before.TotalAlloc) / float64(pulls*rounds*len(r.bufs))
}

// TestScopePullAllocGates is the read path's allocation gate (make
// gather-gates): a tuple's bytes are allocated twice between its trace
// buffer and the sink — the source host's reply frame and the gateway's —
// so a warm benchmark-sized pull allocates under three tuple sizes per
// tuple (84 B; the copy-per-layer path took 267), and the number of
// allocations per pull does not depend on how much was written.
func TestScopePullAllocGates(t *testing.T) {
	r := newPullRig(t)
	if len(r.bufs) != 61 {
		t.Fatalf("%d trace buffers, want the benchmark's 61", len(r.bufs))
	}
	smallAllocs, _ := r.measure(t, 16)
	allocs, perTuple := r.measure(t, 64)
	t.Logf("64 rounds: %.1f allocs/pull, %.1f B/tuple; 16 rounds: %.1f allocs/pull", allocs, perTuple, smallAllocs)
	if limit := 3.0 * collect.TupleSize; perTuple > limit {
		t.Errorf("a warm pull allocates %.1f B/tuple, want at most %.0f", perTuple, limit)
	}
	// The runtime's own bookkeeping (a parked goroutine's wait record, a
	// timer) lands in a cycle now and then; tuples would add hundreds.
	if d := allocs - smallAllocs; d > 8 || d < -8 {
		t.Errorf("allocs/pull moved with the batch size: %.1f at 16 rounds, %.1f at 64", smallAllocs, allocs)
	}
}

// BenchmarkScopePull is one benchmark-shaped gather: 64 rounds written to
// each of the 61 trace buffers, then one pull through host gathers,
// gateway gather and front-end stub. Only the pull is timed.
func BenchmarkScopePull(b *testing.B) {
	const rounds = 64
	r := newPullRig(b)
	for warm := 0; warm < 3; warm++ {
		r.write(b, rounds)
		r.pull(b, rounds)
	}
	tuples := float64(rounds * len(r.bufs))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r.write(b, rounds)
		b.StartTimer()
		r.pull(b, rounds)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/tuples, "ns/tuple")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/tuples, "B/tuple")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/pull")
}

// keptReplies are payloads a consumer held on to, each beside a copy taken
// when it was handed out.
type keptReplies []struct{ data, copy []byte }

func (k *keptReplies) keep(data []byte) {
	*k = append(*k, struct{ data, copy []byte }{data, bytes.Clone(data)})
}

// changed returns the index of the first kept payload that no longer
// reads as it did, or -1.
func (k keptReplies) changed() int {
	for i, r := range k {
		if !bytes.Equal(r.data, r.copy) {
			return i
		}
	}
	return -1
}

// TestRetainedReplySurvivesLaterPulls: a reply owns its bytes for good. A
// consumer that keeps one (a breaker's stale slot) must find it
// unchanged however many pulls of the same scope follow — with and
// without a root gather on the front end, whose buffer would be the one
// reused if any were.
func TestRetainedReplySurvivesLaterPulls(t *testing.T) {
	r := newRig(t)
	for _, health := range []*HealthPolicy{nil, {}} {
		var elems []*pastset.Element
		var srcs []Source
		for _, h := range r.c1.Hosts() {
			for k := 0; k < 2; k++ {
				e, err := pastset.NewElementFixed(h.Name()+string(rune('a'+k)), 32, 4)
				if err != nil {
					t.Fatal(err)
				}
				elems = append(elems, e)
				srcs = append(srcs, Source{Host: h, Elem: e, RecSize: 4})
			}
		}
		scope, err := Build(r.net, Spec{Name: "keep", FrontEnd: r.fe, Health: health, Sources: srcs})
		if err != nil {
			t.Fatal(err)
		}
		var retained keptReplies
		for n := byte(0); n < 8; n++ {
			for i, e := range elems {
				// The same amount every time, so that every level's size
				// guess is exact and every frame is built in place.
				for k := byte(0); k < 3; k++ {
					if _, err := e.WriteCopy([]byte{n, byte(i), k, 0xFF}); err != nil {
						t.Fatal(err)
					}
				}
			}
			rep, err := pull(scope, &paths.Ctx{Thread: "keep"})
			if err != nil || len(rep.Data) != len(elems)*3*4 {
				t.Fatalf("health %v pull %d: %d bytes, %v", health != nil, n, len(rep.Data), err)
			}
			if i := retained.changed(); i >= 0 {
				t.Fatalf("health %v: the reply of pull %d changed during pull %d", health != nil, i, n)
			}
			retained.keep(rep.Data)
		}
		scope.Close()
	}
}

// windowChild is a straggler that uses the window: held back at will, it
// appends its payload to whatever window its request carries. The hold
// is a clock-aware event, so the model idles while a call is held.
type windowChild struct {
	mu      sync.Mutex
	hold    *vclock.Event
	payload []byte
	held    atomic.Int32  // calls that found the hold in place
	done    chan struct{} // closed when a held call has returned
}

func (c *windowChild) Name() string { return "windowchild" }

func (c *windowChild) Op(_ *paths.Ctx, req paths.Request) (paths.Reply, error) {
	c.mu.Lock()
	hold, payload, done := c.hold, c.payload, c.done
	c.mu.Unlock()
	if hold != nil {
		c.held.Add(1)
		hold.Wait()
		defer close(done)
	}
	return paths.Reply{Data: append(req.Window, payload...), Ret: 1}, nil
}

// TestBreakerLateReplyLeavesInterimRepliesAlone: a breaker-bounded child
// that overruns its round deadline keeps running after the round moved
// on, so it must not hold a window into the round's buffer. Its parent
// hands that buffer out as the round's reply long before the child
// writes; the late payload has to arrive intact as stale data while the
// replies of the rounds it missed stay exactly as they were handed out.
func TestBreakerLateReplyLeavesInterimRepliesAlone(t *testing.T) {
	virtual(t)
	mk := func() (*pastset.Element, paths.Wrapper) {
		e, err := pastset.NewElementFixed("e", 64, 4)
		if err != nil {
			t.Fatal(err)
		}
		return e, paths.NewBatchReader("rd", nil, e, 4, 0)
	}
	before, rdBefore := mk()
	after, rdAfter := mk()
	child := &windowChild{payload: bytes.Repeat([]byte{0xCC}, 8)}
	pol := &BreakerPolicy{
		RoundDeadline:  100 * time.Millisecond, // only the first stalled round waits it out
		TripAfter:      100,                    // stay closed: every round admits or awaits the child
		StalenessBound: time.Hour,
	}
	br, _ := testBreaker(pol, child, ModeBounded)
	g, err := paths.NewGather("round", nil, []paths.Wrapper{rdBefore, br, rdAfter}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &paths.Ctx{Thread: "round"}
	round := func(n byte) paths.Reply {
		t.Helper()
		for k := byte(0); k < 2; k++ {
			before.WriteCopy([]byte{1, n, k, 0})
			after.WriteCopy([]byte{2, n, k, 0})
		}
		rep, err := op(g, ctx, paths.Request{Kind: paths.OpRead})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	want := func(n byte, late bool) []byte {
		out := []byte{1, n, 0, 0, 1, n, 1, 0}
		if late {
			out = append(out, child.payload...)
		}
		return append(out, 2, n, 0, 0, 2, n, 1, 0)
	}
	// Healthy rounds: the child answers in time, and the gather learns a
	// reply size with room for its payload between the two readers'.
	for n := byte(0); n < 3; n++ {
		if rep := round(n); !bytes.Equal(rep.Data, want(n, true)) {
			t.Fatalf("healthy round %d: %x", n, rep.Data)
		}
	}
	// The child stalls: the rounds go out without it.
	child.mu.Lock()
	child.hold, child.done = vclock.NewEvent(), make(chan struct{})
	child.mu.Unlock()
	var interim keptReplies
	for n := byte(10); n < 13; n++ {
		rep := round(n)
		if !bytes.Equal(rep.Data, want(n, false)) {
			t.Fatalf("stalled round %d: %x", n, rep.Data)
		}
		interim.keep(rep.Data)
	}
	if n := child.held.Load(); n != 1 {
		t.Fatalf("%d calls are being held back, want the one the first stalled round abandoned", n)
	}
	// It answers at last, into whatever window it was given.
	child.mu.Lock()
	hold, done := child.hold, child.done
	child.hold = nil
	child.mu.Unlock()
	hold.Fire(nil, nil)
	<-done
	delivered := false
	for n := byte(20); n < 250 && !delivered; n++ {
		late := round(n)
		if delivered = bytes.Equal(late.Data, want(n, true)); !delivered && !bytes.Equal(late.Data, want(n, false)) {
			t.Fatalf("round %d after the release: %x", n, late.Data)
		}
		hrtime.SleepOutside(time.Millisecond) // the background call publishes its result shortly after returning
	}
	if !delivered {
		t.Fatal("the late reply was never delivered")
	}
	if br.snapshot().Stale != 1 {
		t.Fatalf("late reply not counted as stale: %+v", br.snapshot())
	}
	if i := interim.changed(); i >= 0 {
		t.Fatalf("the late reply was written into stalled round %d's reply: %x, was %x", i, interim[i].data, interim[i].copy)
	}
}
