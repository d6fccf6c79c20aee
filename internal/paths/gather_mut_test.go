package paths

import (
	"bytes"
	"testing"
)

// Runtime child-set mutation: the repair primitives re-parent children
// between gathers while pulls are in flight, so the copy-on-write set
// must add, remove and replace by identity without disturbing order.
func TestGatherChildMutation(t *testing.T) {
	_, c1, _ := testNet(t)
	h := c1.Hosts()[0]
	mk := func(tag byte) Wrapper {
		return NewFunc("c", h, func(ctx *Ctx, req Request) (Reply, error) {
			return Reply{Data: []byte{tag}, Ret: 1}, nil
		})
	}
	a, b, c, d := mk(1), mk(2), mk(3), mk(4)
	g, err := NewGather("g", h, []Wrapper{a, b}, 0)
	if err != nil {
		t.Fatal(err)
	}

	read := func() []byte {
		t.Helper()
		rep, err := g.Op(nil, Request{Kind: OpRead})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Data
	}
	if got := read(); !bytes.Equal(got, []byte{1, 2}) {
		t.Fatalf("initial read = % x", got)
	}

	g.AddChild(c)
	if got := read(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("after add = % x", got)
	}

	// Replace preserves position; replacing an absent child is a no-op.
	if !g.ReplaceChild(b, d) {
		t.Fatal("replace of present child failed")
	}
	if g.ReplaceChild(b, a) {
		t.Fatal("replace of absent child succeeded")
	}
	if got := read(); !bytes.Equal(got, []byte{1, 4, 3}) {
		t.Fatalf("after replace = % x", got)
	}

	if !g.RemoveChild(a) {
		t.Fatal("remove of present child failed")
	}
	if g.RemoveChild(a) {
		t.Fatal("remove of absent child succeeded")
	}
	if got := read(); !bytes.Equal(got, []byte{4, 3}) {
		t.Fatalf("after remove = % x", got)
	}

	// A gather may be drained empty; it answers reads with an empty
	// reply until children come back.
	g.RemoveChild(d)
	g.RemoveChild(c)
	if len(*g.children.Load()) != 0 {
		t.Fatalf("children = %d, want 0", len(*g.children.Load()))
	}
	rep, err := g.Op(nil, Request{Kind: OpRead})
	if err != nil || len(rep.Data) != 0 || rep.Ret != 0 {
		t.Fatalf("empty gather read = %+v, %v", rep, err)
	}
	g.AddChild(a)
	if got := read(); !bytes.Equal(got, []byte{1}) {
		t.Fatalf("after re-add = % x", got)
	}
}
