package paths

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"eventspace/internal/hrtime"
	"eventspace/internal/pastset"
	"eventspace/internal/vclock"
	"eventspace/internal/vnet"
)

// testNet builds a small two-cluster network and runs the rest of the
// test on the discrete-event clock, where every modelled delay takes its
// exact modelled value and no real time. The test goroutine is a driver:
// it calls wrappers through op and starts goroutines with vclock.Go.
func testNet(t *testing.T) (*vnet.Network, *vnet.Cluster, *vnet.Cluster) {
	t.Helper()
	vclock.Enable(0)
	t.Cleanup(func() {
		vclock.Quiesce(10 * time.Second)
		vclock.Disable()
	})
	n := vnet.NewNetwork(vnet.FastEthernet, vnet.DefaultCostModel())
	c1, err := n.AddCluster("a", "s1", 3, 2, vnet.GigabitEthernet)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := n.AddCluster("b", "s1", 3, 2, vnet.GigabitEthernet)
	if err != nil {
		t.Fatal(err)
	}
	return n, c1, c2
}

// op is w.Op made from inside the model, where a wrapper may wait on the
// virtual clock.
func op(w Wrapper, ctx *Ctx, req Request) (rep Reply, err error) {
	done := make(chan struct{})
	vclock.Go(func() {
		defer close(done)
		rep, err = w.Op(ctx, req)
	})
	<-done
	return rep, err
}

// testElem creates an element of recSize-byte records.
func testElem(t testing.TB, name string, capacity, recSize int) *pastset.Element {
	t.Helper()
	e, err := pastset.NewElementFixed(name, capacity, recSize)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestOpKindString(t *testing.T) {
	if OpWrite.String() != "write" || OpRead.String() != "read" {
		t.Fatal("bad op names")
	}
	if OpKind(99).String() != "op(99)" {
		t.Fatalf("unknown kind = %q", OpKind(99).String())
	}
}

func TestValueStoreWriteRead(t *testing.T) {
	_, c1, _ := testNet(t)
	h := c1.Hosts()[0]
	elem := testElem(t, "v", 4, 8)
	s := NewValueStore("store", h, elem)
	if s.elem != elem {
		t.Fatal("Element() mismatch")
	}
	ctx := &Ctx{Thread: "t0"}
	rep, err := op(s, ctx, Request{Kind: OpWrite, Value: -42})
	if err != nil || rep.Value != -42 {
		t.Fatalf("write: %+v %v", rep, err)
	}
	rep, err = op(s, ctx, Request{Kind: OpRead})
	if err != nil || rep.Value != -42 {
		t.Fatalf("read: %+v %v", rep, err)
	}
	if _, err := op(s, ctx, Request{Kind: OpKind(9)}); err == nil {
		t.Fatal("unsupported op accepted")
	}
}

// TestValueStoreShortTuple: an element of short records never holds a
// value, because the store's write into it is refused.
func TestValueStoreShortTuple(t *testing.T) {
	_, c1, _ := testNet(t)
	s := NewValueStore("store", c1.Hosts()[0], testElem(t, "v", 4, 2))
	if _, err := op(s, nil, Request{Kind: OpWrite, Value: 1}); !errors.Is(err, pastset.ErrRecordSize) {
		t.Fatalf("write into 2-byte records: %v, want ErrRecordSize", err)
	}
	if _, err := op(s, nil, Request{Kind: OpRead}); !errors.Is(err, pastset.ErrEmpty) {
		t.Fatalf("read after the refused write: %v, want ErrEmpty", err)
	}
}

// BenchmarkValueStoreWrite is the store at the root of every allreduce
// tree: one write per round, through a stack buffer, so 0 allocs/op (the
// zero-alloc gate holds it there).
func BenchmarkValueStoreWrite(b *testing.B) {
	s := NewValueStore("store", nil, testElem(b, "v", 64, 8))
	ctx := &Ctx{Thread: "t0"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Op(ctx, Request{Kind: OpWrite, Value: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBatchReaderDrainsAndCaps(t *testing.T) {
	_, c1, _ := testNet(t)
	h := c1.Hosts()[0]
	elem := testElem(t, "trace", 64, 4)
	for i := 0; i < 10; i++ {
		elem.WriteCopy([]byte{byte(i), 0, 0, 0})
	}
	r := NewBatchReader("rd", h, elem, 4, 3)
	rep, err := op(r, nil, Request{Kind: OpRead})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ret != 3 || len(rep.Data) != 12 {
		t.Fatalf("capped read: ret=%d len=%d", rep.Ret, len(rep.Data))
	}
	if rep.Data[0] != 0 || rep.Data[4] != 1 || rep.Data[8] != 2 {
		t.Fatalf("records out of order: % x", rep.Data)
	}
	// Uncapped reader drains the rest.
	r2 := NewBatchReader("rd2", h, elem, 4, 0)
	rep, err = op(r2, nil, Request{Kind: OpRead})
	if err != nil || rep.Ret != 10 {
		t.Fatalf("uncapped: ret=%d err=%v", rep.Ret, err)
	}
	// Empty batch is fine.
	rep, err = op(r2, nil, Request{Kind: OpRead})
	if err != nil || rep.Ret != 0 || len(rep.Data) != 0 {
		t.Fatalf("empty: %+v %v", rep, err)
	}
	if _, err := op(r2, nil, Request{Kind: OpWrite}); err == nil {
		t.Fatal("write on reader accepted")
	}
	if r.Cursor() == nil {
		t.Fatal("no cursor")
	}
}

func TestBatchReaderRejectsWrongRecordSize(t *testing.T) {
	_, c1, _ := testNet(t)
	elem := testElem(t, "trace", 8, 3)
	elem.WriteCopy([]byte{1, 2, 3})
	r := NewBatchReader("rd", c1.Hosts()[0], elem, 4, 0)
	if _, err := op(r, nil, Request{Kind: OpRead}); err == nil {
		t.Fatal("wrong-size record accepted")
	}
}

func TestTransform(t *testing.T) {
	_, c1, _ := testNet(t)
	h := c1.Hosts()[0]
	inner := NewFunc("f", h, func(ctx *Ctx, req Request) (Reply, error) {
		return Reply{Value: req.Value * 2}, nil
	})
	tr := NewTransform("double+1", h, inner, func(r Reply) (Reply, error) {
		r.Value++
		return r, nil
	})
	rep, err := op(tr, nil, Request{Kind: OpWrite, Value: 10})
	if err != nil || rep.Value != 21 {
		t.Fatalf("transform: %+v %v", rep, err)
	}
	bad := NewTransform("bad", h, nil, func(r Reply) (Reply, error) { return r, nil })
	if _, err := op(bad, nil, Request{}); !errors.Is(err, ErrNoNext) {
		t.Fatalf("nil next: %v", err)
	}
	failing := NewFunc("fail", h, func(ctx *Ctx, req Request) (Reply, error) {
		return Reply{}, errors.New("inner boom")
	})
	tr2 := NewTransform("t2", h, failing, func(r Reply) (Reply, error) { return r, nil })
	if _, err := op(tr2, nil, Request{}); err == nil {
		t.Fatal("inner error swallowed")
	}
}

func TestAllreduceValidation(t *testing.T) {
	_, c1, _ := testNet(t)
	h := c1.Hosts()[0]
	next := NewFunc("sink", h, func(ctx *Ctx, req Request) (Reply, error) { return Reply{Value: req.Value}, nil })
	if _, err := NewAllreduce("ar", h, 0, Sum, next); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := NewAllreduce("ar", h, 2, Sum, nil); err == nil {
		t.Fatal("nil next accepted")
	}
	if _, err := NewAllreduce("ar", h, 2, nil, next); err == nil {
		t.Fatal("nil reduce accepted")
	}
}

func TestAllreduceLocalRounds(t *testing.T) {
	_, c1, _ := testNet(t)
	h := c1.Hosts()[0]
	elem := testElem(t, "root", 8, 8)
	store := NewValueStore("store", h, elem)
	ar, err := NewAllreduce("ar", h, 4, Sum, store)
	if err != nil {
		t.Fatal(err)
	}
	if ar.Fanin() != 4 || ar.next != store {
		t.Fatal("accessors wrong")
	}
	const rounds = 50
	var wg sync.WaitGroup
	results := make([][]int64, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		vclock.Go(func() {
			defer wg.Done()
			port := ar.Port(i)
			ctx := &Ctx{Thread: fmt.Sprintf("t%d", i)}
			for r := 0; r < rounds; r++ {
				rep, err := port.Op(ctx, Request{Kind: OpWrite, Value: int64(i + r)})
				if err != nil {
					t.Errorf("op: %v", err)
					return
				}
				results[i] = append(results[i], rep.Value)
			}
		})
	}
	wg.Wait()
	for r := 0; r < rounds; r++ {
		want := int64(0+1+2+3) + int64(4*r)
		for i := 0; i < 4; i++ {
			if results[i][r] != want {
				t.Fatalf("round %d thread %d: got %d, want %d", r, i, results[i][r], want)
			}
		}
	}
	if ar.Rounds() != rounds {
		t.Fatalf("Rounds = %d, want %d", ar.Rounds(), rounds)
	}
	if st := elem.Stats(); st.Written != rounds {
		t.Fatalf("root stored %d values", st.Written)
	}
}

func TestAllreducePortNames(t *testing.T) {
	_, c1, _ := testNet(t)
	h := c1.Hosts()[0]
	next := NewFunc("sink", h, func(ctx *Ctx, req Request) (Reply, error) { return Reply{Value: req.Value}, nil })
	ar, _ := NewAllreduce("ar", h, 2, Sum, next)
	p := ar.Port(1)
	if p.Name() != "ar.port1" {
		t.Fatalf("port = %q", p.Name())
	}
}

func TestAllreduceErrorPropagatesToAllWaiters(t *testing.T) {
	_, c1, _ := testNet(t)
	h := c1.Hosts()[0]
	boom := NewFunc("boom", h, func(ctx *Ctx, req Request) (Reply, error) {
		return Reply{}, errors.New("upward failed")
	})
	ar, _ := NewAllreduce("ar", h, 3, Sum, boom)
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		vclock.Go(func() {
			defer wg.Done()
			_, errs[i] = ar.Port(i).Op(nil, Request{Kind: OpWrite, Value: 1})
		})
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("waiter %d got no error", i)
		}
	}
}

// TestAbortReleasesWaiters: a contributor whose peers will never arrive
// is released by Abort with the abort's error, blocked or not yet called,
// in an allreduce and in an all-to-all exchange.
func TestAbortReleasesWaiters(t *testing.T) {
	n, c1, _ := testNet(t)
	h0, h1 := c1.Hosts()[0], c1.Hosts()[1]
	sink := NewFunc("sink", h0, func(ctx *Ctx, req Request) (Reply, error) { return Reply{Value: req.Value}, nil })
	ar, _ := NewAllreduce("ar", h0, 3, Sum, sink)

	// Participant 0 of a two-way exchange whose peer accepts the value
	// and never sends its own.
	ex0, _ := NewExchange("ex0", h0, 0, 2, Sum, nil)
	ex1, _ := NewExchange("ex1", h1, 1, 2, Sum, nil)
	svc := NewService()
	conn := n.Dial(h0, h1, svc.Handler())
	defer conn.Close()
	if err := ex0.ConnectPeer(1, NewRemote("s01", h0, conn, RegisterExchangeTarget(svc, ex1))); err != nil {
		t.Fatal(err)
	}

	lost := errors.New("participant lost")
	ops := []func() (Reply, error){
		func() (Reply, error) { return ar.Port(0).Op(nil, Request{Kind: OpWrite, Value: 1}) },
		func() (Reply, error) { return ar.Port(1).Op(nil, Request{Kind: OpWrite, Value: 1}) },
		func() (Reply, error) { return ex0.Op(nil, Request{Kind: OpWrite, Value: 1}) },
	}
	errs := make([]error, len(ops))
	var wg sync.WaitGroup
	for i, op := range ops {
		wg.Add(1)
		vclock.Go(func() {
			defer wg.Done()
			_, errs[i] = op()
		})
	}
	ar.Abort(lost)
	ex0.Abort(lost)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, lost) {
			t.Errorf("op %d returned %v, want the abort's error", i, err)
		}
	}
	if _, err := op(ar.Port(2), nil, Request{Kind: OpWrite, Value: 1}); !errors.Is(err, lost) {
		t.Errorf("Op after Abort returned %v", err)
	}
}

type recordingNotifier struct {
	mu       sync.Mutex
	sent     int
	released int
}

func (r *recordingNotifier) AllSent(h *vnet.Host)     { r.mu.Lock(); r.sent++; r.mu.Unlock() }
func (r *recordingNotifier) AllReleased(h *vnet.Host) { r.mu.Lock(); r.released++; r.mu.Unlock() }

func TestAllreduceNotifier(t *testing.T) {
	_, c1, _ := testNet(t)
	h := c1.Hosts()[0]
	next := NewFunc("sink", h, func(ctx *Ctx, req Request) (Reply, error) { return Reply{Value: req.Value}, nil })
	ar, _ := NewAllreduce("ar", h, 2, Sum, next)
	n := &recordingNotifier{}
	ar.SetNotifier(n)
	const rounds = 10
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		vclock.Go(func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := ar.Port(i).Op(nil, Request{Kind: OpWrite, Value: 1}); err != nil {
					t.Errorf("op: %v", err)
				}
			}
		})
	}
	wg.Wait()
	if n.sent != rounds || n.released != rounds {
		t.Fatalf("notifier: sent=%d released=%d, want %d each", n.sent, n.released, rounds)
	}
}

func TestRemoteThroughService(t *testing.T) {
	n, c1, c2 := testNet(t)
	client := c1.Hosts()[0]
	server := c2.Hosts()[0]
	svc := NewService()
	target := svc.Register(NewFunc("echo", server, func(ctx *Ctx, req Request) (Reply, error) {
		if ctx.Thread != "t7" {
			return Reply{}, fmt.Errorf("ctx lost: %q", ctx.Thread)
		}
		return Reply{Value: req.Value + 1, Data: append([]byte("srv:"), req.Data...), Ret: 5}, nil
	}))
	conn := n.Dial(client, server, svc.Handler())
	defer conn.Close()
	stub := NewRemote("stub", client, conn, target)
	rep, err := op(stub, &Ctx{Thread: "t7"}, Request{Kind: OpWrite, Value: 41, Data: []byte("hi")})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Value != 42 || string(rep.Data) != "srv:hi" || rep.Ret != 5 {
		t.Fatalf("reply = %+v", rep)
	}
}

func TestRemoteUnknownTarget(t *testing.T) {
	n, c1, c2 := testNet(t)
	svc := NewService()
	conn := n.Dial(c1.Hosts()[0], c2.Hosts()[0], svc.Handler())
	defer conn.Close()
	stub := NewRemote("stub", c1.Hosts()[0], conn, 999)
	if _, err := op(stub, nil, Request{Kind: OpWrite}); err == nil {
		t.Fatal("unknown target accepted")
	}
}

func TestRemoteErrorPropagates(t *testing.T) {
	n, c1, c2 := testNet(t)
	svc := NewService()
	target := svc.Register(NewFunc("fail", c2.Hosts()[0], func(ctx *Ctx, req Request) (Reply, error) {
		return Reply{}, errors.New("remote boom")
	}))
	conn := n.Dial(c1.Hosts()[0], c2.Hosts()[0], svc.Handler())
	defer conn.Close()
	stub := NewRemote("stub", c1.Hosts()[0], conn, target)
	if _, err := op(stub, nil, Request{Kind: OpWrite}); err == nil {
		t.Fatal("remote error swallowed")
	}
}

func TestQuickRequestCodecRoundTrip(t *testing.T) {
	f := func(target uint32, kind uint16, value int64, thread string, data []byte) bool {
		if len(thread) > 1000 {
			thread = thread[:1000]
		}
		ctx := &Ctx{Thread: thread}
		req := Request{Kind: OpKind(kind), Value: value, Data: data}
		gotTarget, gotCtx, gotReq, err := decodeRequest(encodeRequest(target, ctx, req))
		if err != nil {
			return false
		}
		return gotTarget == target &&
			gotCtx.Thread == thread &&
			gotReq.Kind == req.Kind &&
			gotReq.Value == value &&
			bytes.Equal(gotReq.Data, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickReplyCodecRoundTrip(t *testing.T) {
	f := func(ret int16, value int64, data []byte) bool {
		rep := Reply{Ret: ret, Value: value, Data: data}
		got, err := decodeReply(encodeReply(nil, replyOK, rep))
		if err != nil {
			return false
		}
		return got.Ret == ret && got.Value == value && bytes.Equal(got.Data, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsTruncatedFrames(t *testing.T) {
	full := encodeRequest(1, &Ctx{Thread: "abc"}, Request{Kind: OpWrite, Value: 1, Data: []byte("xyz")})
	for cut := 0; cut < len(full); cut++ {
		if _, _, _, err := decodeRequest(full[:cut]); err == nil {
			t.Fatalf("truncated request at %d accepted", cut)
		}
	}
	fullRep := encodeReply(nil, replyOK, Reply{Ret: 1, Value: 2, Data: []byte("abc")})
	for cut := 0; cut < len(fullRep); cut++ {
		if _, err := decodeReply(fullRep[:cut]); err == nil {
			t.Fatalf("truncated reply at %d accepted", cut)
		}
	}
}

// TestTwoLevelTreeAcrossHosts builds the figure 1 shape: a leaf allreduce
// per host joining local threads, the remote leaf forwarding through a
// stub and communication thread into a port of the root allreduce.
func TestTwoLevelTreeAcrossHosts(t *testing.T) {
	n, c1, _ := testNet(t)
	rootHost := c1.Hosts()[0]
	leafHost := c1.Hosts()[1]

	rootElem := testElem(t, "result", 8, 8)
	store := NewValueStore("store", rootHost, rootElem)
	root, err := NewAllreduce("root", rootHost, 2, Sum, store)
	if err != nil {
		t.Fatal(err)
	}
	// Local leaf on the root host joins threads T1,T2 then feeds port 0.
	leafA, err := NewAllreduce("leafA", rootHost, 2, Sum, root.Port(0))
	if err != nil {
		t.Fatal(err)
	}
	// Remote leaf joins T3,T4, then its combined value crosses the
	// network into port 1.
	svc := NewService()
	target := svc.Register(root.Port(1))
	conn := n.Dial(leafHost, rootHost, svc.Handler())
	defer conn.Close()
	stub := NewRemote("stub", leafHost, conn, target)
	leafB, err := NewAllreduce("leafB", leafHost, 2, Sum, stub)
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 20
	ports := []Wrapper{leafA.Port(0), leafA.Port(1), leafB.Port(0), leafB.Port(1)}
	var wg sync.WaitGroup
	for i, p := range ports {
		wg.Add(1)
		vclock.Go(func() {
			defer wg.Done()
			ctx := &Ctx{Thread: fmt.Sprintf("t%d", i)}
			for r := 0; r < rounds; r++ {
				rep, err := p.Op(ctx, Request{Kind: OpWrite, Value: int64(i)})
				if err != nil {
					t.Errorf("thread %d round %d: %v", i, r, err)
					return
				}
				if rep.Value != 0+1+2+3 {
					t.Errorf("thread %d round %d: sum = %d", i, r, rep.Value)
					return
				}
			}
		})
	}
	wg.Wait()
	if st := rootElem.Stats(); st.Written != rounds {
		t.Fatalf("root element has %d writes, want %d", st.Written, rounds)
	}
}

func TestGatherValidation(t *testing.T) {
	_, c1, _ := testNet(t)
	h := c1.Hosts()[0]
	if _, err := NewGather("g", h, nil, 0); err == nil {
		t.Fatal("no children accepted")
	}
	child := NewFunc("c", h, func(ctx *Ctx, req Request) (Reply, error) { return Reply{}, nil })
	if _, err := NewGather("g", h, []Wrapper{child}, -1); err == nil {
		t.Fatal("negative helpers accepted")
	}
}

func TestGatherSequentialAndParallel(t *testing.T) {
	_, c1, _ := testNet(t)
	h := c1.Hosts()[0]
	mk := func(tag byte, n int) Wrapper {
		elem := testElem(t, fmt.Sprintf("e%d", tag), 16, 2)
		for i := 0; i < n; i++ {
			elem.WriteCopy([]byte{tag, byte(i)})
		}
		return NewBatchReader(fmt.Sprintf("rd%d", tag), h, elem, 2, 0)
	}
	for _, helpers := range []int{0, 3} {
		g, err := NewGather("g", h, []Wrapper{mk(1, 2), mk(2, 1), mk(3, 3)}, helpers)
		if err != nil {
			t.Fatal(err)
		}
		if g.helpers != helpers || len(*g.children.Load()) != 3 {
			t.Fatal("accessors wrong")
		}
		rep, err := op(g, nil, Request{Kind: OpRead})
		if err != nil {
			t.Fatal(err)
		}
		want := []byte{1, 0, 1, 1, 2, 0, 3, 0, 3, 1, 3, 2}
		if !bytes.Equal(rep.Data, want) || rep.Ret != 6 {
			t.Fatalf("helpers=%d: data=% x ret=%d", helpers, rep.Data, rep.Ret)
		}
		if _, err := op(g, nil, Request{Kind: OpWrite}); err == nil {
			t.Fatal("write on gather accepted")
		}
	}
}

func TestGatherChildErrorWins(t *testing.T) {
	_, c1, _ := testNet(t)
	h := c1.Hosts()[0]
	ok := NewFunc("ok", h, func(ctx *Ctx, req Request) (Reply, error) { return Reply{Data: []byte{1}}, nil })
	bad := NewFunc("bad", h, func(ctx *Ctx, req Request) (Reply, error) { return Reply{}, errors.New("child boom") })
	g, _ := NewGather("g", h, []Wrapper{ok, bad}, 0)
	if _, err := op(g, nil, Request{Kind: OpRead}); err == nil {
		t.Fatal("child error swallowed")
	}
}

// Helper threads must genuinely overlap slow children: with every child
// blocked the same modelled time, parallel gathering finishes in one
// child's time while sequential pays the sum. (This is the mechanism
// behind the Table 2 sequential/parallel gather-rate crossover.) Both
// gathers run under the virtual clock, so the elapsed times are
// modelled — children x delay against delay — whatever the host is
// doing.
func TestGatherHelpersOverlapSlowChildren(t *testing.T) {
	_, c1, _ := testNet(t)
	h := c1.Hosts()[0]
	const children = 4
	const delay = 50 * time.Millisecond
	mk := func(i int) Wrapper {
		return NewFunc(fmt.Sprintf("slow%d", i), h, func(ctx *Ctx, req Request) (Reply, error) {
			hrtime.Sleep(delay)
			return Reply{Ret: 1, Data: []byte{byte(i)}}, nil
		})
	}
	var kids []Wrapper
	for i := 0; i < children; i++ {
		kids = append(kids, mk(i))
	}
	elapsed := func(helpers int) time.Duration {
		g, err := NewGather("g", h, kids, helpers)
		if err != nil {
			t.Fatal(err)
		}
		ch := make(chan time.Duration, 1)
		vclock.Go(func() {
			start := hrtime.Now()
			rep, err := g.Op(nil, Request{Kind: OpRead})
			if err != nil || rep.Ret != children {
				t.Errorf("helpers=%d: %+v, %v", helpers, rep, err)
			}
			ch <- time.Duration(hrtime.Since(start))
		})
		return <-ch
	}
	seq := elapsed(0)
	par := elapsed(children)
	if par*2 >= seq {
		t.Fatalf("parallel gather %v not ~%dx faster than sequential %v: helpers do not overlap",
			par, children, seq)
	}
}

func TestExchangeAllToAll(t *testing.T) {
	n, c1, c2 := testNet(t)
	hosts := []*vnet.Host{c1.Hosts()[0], c1.Hosts()[1], c2.Hosts()[0]}
	const k = 3
	exs := make([]*Exchange, k)
	svcs := make([]*Service, k)
	for i := 0; i < k; i++ {
		var err error
		exs[i], err = NewExchange(fmt.Sprintf("ex%d", i), hosts[i], i, k, Sum, nil)
		if err != nil {
			t.Fatal(err)
		}
		svcs[i] = NewService()
	}
	targets := make([]uint32, k)
	for i := 0; i < k; i++ {
		targets[i] = RegisterExchangeTarget(svcs[i], exs[i])
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if i == j {
				continue
			}
			conn := n.Dial(hosts[i], hosts[j], svcs[j].Handler())
			defer conn.Close()
			stub := NewRemote(fmt.Sprintf("stub%d-%d", i, j), hosts[i], conn, targets[j])
			if err := exs[i].ConnectPeer(j, stub); err != nil {
				t.Fatal(err)
			}
		}
	}
	const rounds = 10
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		vclock.Go(func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				rep, err := exs[i].Op(nil, Request{Kind: OpWrite, Value: int64((i + 1) * (r + 1))})
				if err != nil {
					t.Errorf("ex%d round %d: %v", i, r, err)
					return
				}
				want := int64((1 + 2 + 3) * (r + 1))
				if rep.Value != want {
					t.Errorf("ex%d round %d: got %d, want %d", i, r, rep.Value, want)
					return
				}
			}
		})
	}
	wg.Wait()
}

func TestExchangeValidation(t *testing.T) {
	_, c1, _ := testNet(t)
	h := c1.Hosts()[0]
	if _, err := NewExchange("e", h, 2, 2, Sum, nil); err == nil {
		t.Fatal("id out of range accepted")
	}
	if _, err := NewExchange("e", h, 0, 2, nil, nil); err == nil {
		t.Fatal("nil reduce accepted")
	}
	e, _ := NewExchange("e", h, 0, 3, Sum, nil)
	if err := e.ConnectPeer(0, nil); err == nil {
		t.Fatal("self peer accepted")
	}
	if err := e.ConnectPeer(5, nil); err == nil {
		t.Fatal("out-of-range peer accepted")
	}
	if _, err := op(e, nil, Request{Kind: OpWrite, Value: 1}); err == nil {
		t.Fatal("op with missing peers accepted")
	}
	if e.id != 0 || e.Participants() != 3 {
		t.Fatal("accessors wrong")
	}
}

func TestExchangeStoresViaNext(t *testing.T) {
	n, c1, _ := testNet(t)
	hosts := []*vnet.Host{c1.Hosts()[0], c1.Hosts()[1]}
	elems := []*pastset.Element{testElem(t, "r0", 8, 8), testElem(t, "r1", 8, 8)}
	exs := make([]*Exchange, 2)
	svcs := []*Service{NewService(), NewService()}
	for i := 0; i < 2; i++ {
		store := NewValueStore("st", hosts[i], elems[i])
		var err error
		exs[i], err = NewExchange(fmt.Sprintf("ex%d", i), hosts[i], i, 2, func(a, b int64) int64 { return max(a, b) }, store)
		if err != nil {
			t.Fatal(err)
		}
	}
	t0 := RegisterExchangeTarget(svcs[0], exs[0])
	t1 := RegisterExchangeTarget(svcs[1], exs[1])
	c01 := n.Dial(hosts[0], hosts[1], svcs[1].Handler())
	c10 := n.Dial(hosts[1], hosts[0], svcs[0].Handler())
	defer c01.Close()
	defer c10.Close()
	exs[0].ConnectPeer(1, NewRemote("s01", hosts[0], c01, t1))
	exs[1].ConnectPeer(0, NewRemote("s10", hosts[1], c10, t0))
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		vclock.Go(func() {
			defer wg.Done()
			rep, err := exs[i].Op(nil, Request{Kind: OpWrite, Value: int64(10 * (i + 1))})
			if err != nil || rep.Value != 20 {
				t.Errorf("ex%d: %+v %v", i, rep, err)
			}
		})
	}
	wg.Wait()
	for i, e := range elems {
		val, err := e.Latest(nil)
		if err != nil {
			t.Fatalf("elem %d: %v", i, err)
		}
		if got := int64(binary.LittleEndian.Uint64(val)); got != 20 {
			t.Fatalf("elem %d stores %d, want 20", i, got)
		}
	}
}

func TestReduceFuncs(t *testing.T) {
	if Sum(2, 3) != 5 {
		t.Fatal("reduce funcs broken")
	}
}
