package paths

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"eventspace/internal/hrtime"
	"eventspace/internal/pastset"
	"eventspace/internal/vclock"
	"eventspace/internal/vnet"
	"eventspace/internal/wire"
)

// refGather is the gather this package shipped before requests carried a
// window: every child is read with the request as it came (which had no
// window then), the replies are collected, and the payload is
// concatenated by append from nil. It is kept as the reference the
// window-passing gather is held equal to.
type refGather struct {
	base
	children []Wrapper
	helpers  int
}

func (g *refGather) Op(ctx *Ctx, req Request) (Reply, error) {
	if req.Kind != OpRead {
		return Reply{}, fmt.Errorf("paths: %s: unsupported op %v", g.name, req.Kind)
	}
	req.Window = nil
	children := g.children
	replies := make([]Reply, len(children))
	errs := make([]error, len(children))
	if g.helpers == 0 {
		for i, c := range children {
			replies[i], errs[i] = c.Op(ctx, req)
		}
	} else {
		sem := vclock.NewSem(g.helpers)
		wg := vclock.NewWaitGroup()
		for i, c := range children {
			i, c := i, c
			wg.Add(1)
			vclock.Go(func() {
				defer wg.Done()
				sem.Acquire()
				defer sem.Release()
				replies[i], errs[i] = c.Op(ctx, req)
			})
		}
		wg.Wait()
	}
	var out Reply
	var buf []byte
	total := 0
	for i := range replies {
		if errs[i] != nil {
			return Reply{}, fmt.Errorf("paths: %s: child %s: %w", g.name, children[i].Name(), errs[i])
		}
		buf = append(buf, replies[i].Data...)
		total += int(replies[i].Ret)
	}
	out.Data = buf
	out.Ret = int16(min(total, 1<<15-1))
	return out, nil
}

// Random wrapper trees for the differential test. A tree is drawn once as
// plain data and instantiated twice — gathers real in one copy, reference
// in the other — over separate but identically fed elements.

const treeRec = 4 // record size of every leaf element

type nodeKind int

const (
	leafElem      nodeKind = iota // BatchReader over an element
	leafOwn                       // Func that ignores the window and returns bytes of its own
	leafWindow                    // Func that appends to the window
	leafFail                      // Func that fails every other call
	nodeSkip                      // Transform returning a sub-slice of its child's bytes
	nodeRewrite                   // Transform returning fresh bytes
	nodeGather                    // Gather, sequential or with helpers
	nodeRemote                    // Remote over an in-process connection
	nodeRemoteTCP                 // Remote over loopback TCP
)

type nodeSpec struct {
	kind     nodeKind
	name     string
	max      int // leaf batch cap
	helpers  int
	children []*nodeSpec
}

// treeGen draws trees and counts what they were made of, so the test can
// tell a generator that stopped covering a kind.
type treeGen struct {
	rng     *rand.Rand
	failing bool // this tree's own-bytes leaves fail every other call
	id      int
	drawn   *[nodeRemoteTCP + 1]int
}

func (g *treeGen) draw(depth int) *nodeSpec {
	g.id++
	n := &nodeSpec{name: fmt.Sprintf("n%d", g.id)}
	defer func() { g.drawn[n.kind]++ }()
	pick := g.rng.Intn(20)
	if depth == 0 {
		pick = g.rng.Intn(10)
	}
	switch {
	case pick < 6:
		n.kind = leafElem
		if pick < 4 && g.rng.Intn(3) == 0 {
			n.max = 1 + g.rng.Intn(3)
		}
	case pick < 8:
		n.kind = leafOwn
		if g.failing {
			n.kind = leafFail
		}
	case pick < 10:
		n.kind = leafWindow
	case pick < 12:
		n.kind = nodeSkip
		n.children = []*nodeSpec{g.draw(depth - 1)}
	case pick < 13:
		n.kind = nodeRewrite
		n.children = []*nodeSpec{g.draw(depth - 1)}
	case pick < 17:
		n.kind = nodeGather
		if g.rng.Intn(2) == 0 {
			n.helpers = 4
		}
		for k := 1 + g.rng.Intn(4); k > 0; k-- {
			n.children = append(n.children, g.draw(depth-1))
		}
	case pick < 19:
		n.kind = nodeRemote
		n.children = []*nodeSpec{g.draw(depth - 1)}
	default:
		n.kind = nodeRemoteTCP
		n.children = []*nodeSpec{g.draw(depth - 1)}
	}
	return n
}

// treeRig is one instantiation of a tree: its root and the leaf elements
// in draw order, so two rigs of one spec can be fed in lock-step.
type treeRig struct {
	t     *testing.T
	net   *vnet.Network
	hosts []*vnet.Host
	real  bool
	elems []*pastset.Element
}

func (r *treeRig) gather(name string, children []Wrapper, helpers int) Wrapper {
	if !r.real {
		return &refGather{base: base{name, r.hosts[0]}, children: children, helpers: helpers}
	}
	g, err := NewGather(name, r.hosts[0], children, helpers)
	if err != nil {
		r.t.Fatal(err)
	}
	return g
}

func (r *treeRig) build(n *nodeSpec) Wrapper {
	h := r.hosts[0]
	var next Wrapper
	if len(n.children) == 1 {
		next = r.build(n.children[0])
	}
	switch n.kind {
	case leafElem:
		elem := testElem(r.t, n.name, 8, treeRec)
		r.elems = append(r.elems, elem)
		return NewBatchReader(n.name, h, elem, treeRec, n.max)
	case leafOwn:
		calls := 0 // a leaf runs once per pull, so never concurrently with itself
		return NewFunc(n.name, h, func(*Ctx, Request) (Reply, error) {
			calls++
			if calls%3 == 0 {
				return Reply{}, nil // an empty child now and then
			}
			return Reply{Data: []byte{0xA0, byte(calls), 0, 0}, Ret: 1}, nil
		})
	case leafWindow:
		calls := 0
		return NewFunc(n.name, h, func(_ *Ctx, req Request) (Reply, error) {
			calls++
			out := req.Window
			for i := 0; i < calls%4; i++ {
				out = append(out, 0xB0, byte(calls), byte(i), 0)
			}
			return Reply{Data: out, Ret: int16(len(out) / treeRec)}, nil
		})
	case leafFail:
		calls := 0
		return NewFunc(n.name, h, func(*Ctx, Request) (Reply, error) {
			if calls++; calls%2 == 1 {
				return Reply{}, errors.New("leaf " + n.name + " boom")
			}
			return Reply{Data: []byte{0xF0, byte(calls), 0, 0}, Ret: 1}, nil
		})
	case nodeSkip:
		return NewTransform(n.name, h, next, func(rep Reply) (Reply, error) {
			if len(rep.Data) >= treeRec {
				rep.Data = rep.Data[treeRec:]
				rep.Ret--
			}
			return rep, nil
		})
	case nodeRewrite:
		return NewTransform(n.name, h, next, func(rep Reply) (Reply, error) {
			out := make([]byte, 0, len(rep.Data))
			for off := len(rep.Data) - treeRec; off >= 0; off -= treeRec {
				out = append(out, rep.Data[off:off+treeRec]...)
			}
			return Reply{Data: out, Ret: rep.Ret}, nil
		})
	case nodeGather:
		var children []Wrapper
		for _, c := range n.children {
			children = append(children, r.build(c))
		}
		return r.gather(n.name, children, n.helpers)
	case nodeRemote:
		svc := NewService()
		target := svc.Register(next)
		conn := r.net.Dial(h, r.hosts[1], svc.Handler())
		r.t.Cleanup(func() { conn.Close() })
		return NewRemote(n.name, h, conn, target)
	case nodeRemoteTCP:
		svc := NewService()
		target := svc.Register(next)
		srv, err := vnet.ListenTCP("127.0.0.1:0", svc.Handler())
		if err != nil {
			r.t.Fatal(err)
		}
		r.t.Cleanup(func() { srv.Close() })
		caller, err := vnet.DialTCP(srv.Addr())
		if err != nil {
			r.t.Fatal(err)
		}
		r.t.Cleanup(func() { caller.Close() })
		return NewRemote(n.name, h, caller, target)
	}
	panic("unreachable")
}

func newTreeRig(t *testing.T, real bool) *treeRig {
	n := vnet.NewNetwork(vnet.FastEthernet, vnet.DefaultCostModel())
	c, err := n.AddCluster("c", "s", 2, 2, vnet.GigabitEthernet)
	if err != nil {
		t.Fatal(err)
	}
	return &treeRig{t: t, net: n, hosts: c.Hosts(), real: real}
}

// TestGatherMatchesAppendReference holds the window-passing read path
// equal to the collect-then-append gather on random trees of every
// wrapper that can sit under a gather — batch readers over both element
// kinds, transforms, functions that ignore the window and functions that
// use it, nested gathers, stubs over the in-process and the loopback TCP
// transport — sequential and with helpers, with children that come back
// empty and, in a share of the trees, one that fails: the same payload,
// record count and error text, round after round while the size guesses
// go stale, and every payload handed out earlier still intact at the end.
func TestGatherMatchesAppendReference(t *testing.T) {
	old := hrtime.Scale()
	hrtime.SetScale(0)
	t.Cleanup(func() { hrtime.SetScale(old) })
	var drawn [nodeRemoteTCP + 1]int
	failed, succeeded := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			gen := &treeGen{rng: rng, failing: seed%5 == 0, drawn: &drawn}
			spec := &nodeSpec{kind: nodeGather, name: "root", helpers: 4 * int(seed%2)}
			for k := 2 + rng.Intn(3); k > 0; k-- {
				spec.children = append(spec.children, gen.draw(3))
			}
			got, ref := newTreeRig(t, true), newTreeRig(t, false)
			gotRoot, refRoot := got.build(spec), ref.build(spec)
			if len(got.elems) != len(ref.elems) {
				t.Fatalf("rigs differ: %d and %d leaf elements", len(got.elems), len(ref.elems))
			}
			type kept struct{ data, copy []byte }
			var retained []kept
			ctx := &Ctx{Thread: "diff"}
			serial := byte(0)
			for round := 0; round < 8; round++ {
				for i := range got.elems {
					for k := rng.Intn(7) * rng.Intn(2); k > 0; k-- {
						serial++
						rec := []byte{byte(i), serial, byte(round), 0xEE}
						if _, err := got.elems[i].WriteCopy(rec); err != nil {
							t.Fatal(err)
						}
						if _, err := ref.elems[i].WriteCopy(rec); err != nil {
							t.Fatal(err)
						}
					}
				}
				req := Request{Kind: OpRead}
				if round%3 == 2 {
					// A caller with a buffer of its own, roomy or short.
					req.Window = make([]byte, 0, rng.Intn(200))
				}
				gr, gerr := gotRoot.Op(ctx, req)
				rr, rerr := refRoot.Op(ctx, Request{Kind: OpRead})
				if (gerr == nil) != (rerr == nil) || (gerr != nil && gerr.Error() != rerr.Error()) {
					t.Fatalf("round %d: error %v, reference %v", round, gerr, rerr)
				}
				if !bytes.Equal(gr.Data, rr.Data) || gr.Ret != rr.Ret || gr.Value != rr.Value {
					t.Fatalf("round %d: reply %x ret %d, reference %x ret %d", round, gr.Data, gr.Ret, rr.Data, rr.Ret)
				}
				retained = append(retained, kept{gr.Data, bytes.Clone(gr.Data)})
				if gerr != nil {
					failed++
				} else if len(gr.Data) > 0 {
					succeeded++
				}
			}
			for round, k := range retained {
				if !bytes.Equal(k.data, k.copy) {
					t.Fatalf("the reply of round %d changed after it was handed out: %x, was %x", round, k.data, k.copy)
				}
			}
		})
	}
	t.Logf("kinds %v failed %d succeeded %d", drawn, failed, succeeded)
	for kind, n := range drawn {
		if n == 0 {
			t.Errorf("no tree held a node of kind %d", kind)
		}
	}
	if failed == 0 || succeeded < failed {
		t.Errorf("%d failing and %d non-empty successful rounds: the trees no longer cover both", failed, succeeded)
	}
}

// TestExtendAdoptsInPlace pins the one pointer check the read path rests
// on: bytes appended to the window are adopted where they are, anything
// else — other memory, a window outgrown, a slice that merely lies
// somewhere in the same buffer — is copied, and both give the same bytes.
func TestExtendAdoptsInPlace(t *testing.T) {
	out := append(make([]byte, 0, 16), 1, 2, 3)
	data := append(window(out), 4, 5)
	got := wire.Extend(out, data)
	if !bytes.Equal(got, []byte{1, 2, 3, 4, 5}) || &got[0] != &out[0] || &got[3] != &data[0] {
		t.Fatalf("in-window payload not adopted in place: %v", got)
	}
	foreign := wire.Extend(got, []byte{6})
	if !bytes.Equal(foreign, []byte{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("foreign payload: %v", foreign)
	}
	big := append(window(out), make([]byte, 32)...) // outgrew the window: lives elsewhere
	if got := wire.Extend(out, big); len(got) != 3+32 || &got[0] == &out[0] {
		t.Fatalf("outgrown window: len %d, reused %v", len(got), &got[0] == &out[0])
	}
	inside := out[:8][5:8] // same buffer, not at the tail
	copy(inside, []byte{7, 8, 9})
	if got := wire.Extend(out, inside); !bytes.Equal(got, []byte{1, 2, 3, 7, 8, 9}) {
		t.Fatalf("payload elsewhere in the buffer: %v", got)
	}
	if got := wire.Extend(out, nil); len(got) != 3 {
		t.Fatalf("empty payload: %v", got)
	}
	if got := wire.Extend(nil, []byte{1}); !bytes.Equal(got, []byte{1}) {
		t.Fatalf("nil output: %v", got)
	}
}

// goldenInputs are the frames testdata/ pins, written by the encoders of
// the commit before the reply encoder learned to complete a frame in
// place (never regenerate them from the code under test).
func goldenInputs() (readReq, writeReq Request, data Reply, appErr error) {
	payload := make([]byte, 84)
	for i := range payload {
		payload[i] = byte(i*7 + 1)
	}
	rec := make([]byte, 28)
	for i := range rec {
		rec[i] = byte(i)
	}
	return Request{Kind: OpRead}, Request{Kind: OpWrite, Value: -42, Data: rec},
		Reply{Value: 0x1122334455667788, Ret: 3, Data: payload},
		errors.New("paths: T1/rd0: unsupported op write")
}

func golden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWireGoldens holds the frames byte-identical to the parent's: a
// request whether or not it carries a window, a reply with data encoded
// by copy and completed in place, an empty reply, an application error.
func TestWireGoldens(t *testing.T) {
	readReq, writeReq, rep, appErr := goldenInputs()
	check := func(name string, got []byte) {
		t.Helper()
		if want := golden(t, name); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got  %x\n want %x", name, got, want)
		}
	}
	ctx := &Ctx{Thread: "archive/T1/gather"}
	check("request-read.bin", encodeRequest(7, ctx, readReq))
	readReq.Window = make([]byte, 0, 64)
	check("request-read.bin", encodeRequest(7, ctx, readReq))
	check("request-write.bin", encodeRequest(0x01020304, &Ctx{Thread: "t"}, writeReq))
	writeReq.Window = append(make([]byte, 0, 8), 1)[:0]
	check("request-write.bin", encodeRequest(0x01020304, &Ctx{Thread: "t"}, writeReq))

	check("reply-data.bin", encodeReply(nil, replyOK, rep))
	frame := make([]byte, replyHeaderLen, replyHeaderLen+len(rep.Data))
	inPlace := rep
	inPlace.Data = append(window(frame), rep.Data...)
	got := encodeReply(frame, replyOK, inPlace)
	check("reply-data.bin", got)
	if &got[0] != &frame[0] {
		t.Error("a payload appended to the frame's window was not completed in place")
	}
	short := make([]byte, replyHeaderLen, replyHeaderLen+8) // the guess fell short: the payload lives elsewhere
	check("reply-data.bin", encodeReply(short, replyOK, rep))
	check("reply-empty.bin", encodeReply(nil, replyOK, Reply{}))
	check("reply-empty.bin", encodeReply(make([]byte, replyHeaderLen, 64), replyOK, Reply{}))
	check("reply-apperror.bin", encodeErrorReply(appErr))

	// And back: the decoders read the pinned frames as the inputs.
	if _, _, req, err := decodeRequest(golden(t, "request-write.bin")); err != nil || req.Value != -42 || len(req.Data) != 28 || req.Window != nil {
		t.Errorf("decoded request = %+v, %v", req, err)
	}
	if dec, err := decodeReply(golden(t, "reply-data.bin")); err != nil || dec.Ret != rep.Ret || dec.Value != rep.Value || !bytes.Equal(dec.Data, rep.Data) {
		t.Errorf("decoded reply = %+v, %v", dec, err)
	}
	if _, err := decodeReply(golden(t, "reply-apperror.bin")); !IsRemote(err) || err.Error() != (&RemoteError{Msg: appErr.Error()}).Error() {
		t.Errorf("decoded application error = %v", err)
	}
}

// TestHandlerBuildsReadReplyInPlace drives a service target whose chain
// appends to the window: from the second call on (the first has no
// previous reply to size from) the payload is written once, straight
// into the frame the handler returns, and a write request is handed no
// window at all.
func TestHandlerBuildsReadReplyInPlace(t *testing.T) {
	payload := bytes.Repeat([]byte{0xC3}, 56)
	var at *byte
	var windows []int
	svc := NewService()
	target := svc.Register(NewFunc("t", nil, func(_ *Ctx, req Request) (Reply, error) {
		windows = append(windows, cap(req.Window))
		if req.Kind != OpRead {
			return Reply{Value: req.Value}, nil
		}
		out := append(req.Window, payload...)
		at = &out[0]
		return Reply{Data: out, Ret: 2}, nil
	}))
	h := svc.Handler()
	want := encodeReply(nil, replyOK, Reply{Data: payload, Ret: 2})
	for call := 0; call < 3; call++ {
		frame, err := h(encodeRequest(target, &Ctx{}, Request{Kind: OpRead}))
		if err != nil || !bytes.Equal(frame, want) {
			t.Fatalf("call %d: frame %x, %v", call, frame, err)
		}
		if inPlace := &frame[replyHeaderLen] == at; inPlace != (call > 0) {
			t.Fatalf("call %d: payload in place = %v (window %d bytes)", call, inPlace, windows[call])
		}
	}
	if _, err := h(encodeRequest(target, &Ctx{}, Request{Kind: OpWrite, Value: 9})); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, len(payload), len(payload), 0}; fmt.Sprint(windows) != fmt.Sprint(want) {
		t.Fatalf("window sizes handed down = %v, want %v", windows, want)
	}
}

// TestTransformKeepsChildOutOfWindow: what a transform returns is its own
// rewrite, so the chain under it — here a gather over a batch reader —
// must not get to write into the buffer of the transform's caller. The
// caller's window comes back untouched and the reply lies outside it.
func TestTransformKeepsChildOutOfWindow(t *testing.T) {
	elem, err := pastset.NewElementFixed("e", 8, treeRec)
	if err != nil {
		t.Fatal(err)
	}
	tail := NewFunc("tail", nil, func(_ *Ctx, req Request) (Reply, error) {
		return Reply{Data: append(req.Window, 0xEE, 0xEE, 0xEE, 0xEE), Ret: 1}, nil
	})
	g, err := NewGather("g", nil, []Wrapper{NewBatchReader("rd", nil, elem, treeRec, 0), tail}, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTransform("tr", nil, g, func(rep Reply) (Reply, error) {
		rep.Data = rep.Data[treeRec:] // drop the first record
		rep.Ret--
		return rep, nil
	})
	for round := byte(0); round < 3; round++ {
		for i := byte(0); i < 3; i++ {
			if _, err := elem.WriteCopy([]byte{round, i, 0, 0}); err != nil {
				t.Fatal(err)
			}
		}
		buf := bytes.Repeat([]byte{0x55}, 64)
		rep, err := tr.Op(&Ctx{}, Request{Kind: OpRead, Window: buf[:0]})
		if err != nil {
			t.Fatal(err)
		}
		if want := []byte{round, 1, 0, 0, round, 2, 0, 0, 0xEE, 0xEE, 0xEE, 0xEE}; !bytes.Equal(rep.Data, want) || rep.Ret != 3 {
			t.Fatalf("round %d: reply %x ret %d", round, rep.Data, rep.Ret)
		}
		if !bytes.Equal(buf, bytes.Repeat([]byte{0x55}, 64)) {
			t.Fatalf("round %d: the chain under the transform wrote into its caller's window: %x", round, buf)
		}
	}
}
