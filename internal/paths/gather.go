package paths

import (
	"fmt"
	"sync"
	"sync/atomic"

	"eventspace/internal/hrtime"
	"eventspace/internal/metrics"
	"eventspace/internal/vclock"
	"eventspace/internal/vnet"
	"eventspace/internal/wire"
)

// Gather reads from several child paths, concatenates their payloads and
// returns one large tuple (section 4.2). The children are typically
// BatchReaders over trace buffers, possibly behind Remote stubs on other
// hosts.
//
// With helpers == 0 the children are read sequentially in the calling
// thread's context. With helpers > 0 that many helper threads perform the
// reads in parallel — the paper's knob for trading monitoring overhead
// against gather performance (Tables 1-3, "sequential" vs "parallel").
//
// The child set is mutable at runtime (copy-on-write): runtime tree
// repair re-parents children between gathers while pulls are in flight.
// An in-flight gather keeps reading the snapshot it started with; a
// removed child's dead connection surfaces as a transport fault the
// enclosing health guard absorbs.
type Gather struct {
	base
	children atomic.Pointer[[]Wrapper]
	mutMu    sync.Mutex // serializes child-set mutations
	helpers  int
	lastSize atomic.Int64 // payload bytes of the previous reply: the next buffer's size
	met      atomic.Pointer[metrics.Op]
}

// NewGather creates a gather wrapper over the given children.
func NewGather(name string, host *vnet.Host, children []Wrapper, helpers int) (*Gather, error) {
	if len(children) == 0 {
		return nil, fmt.Errorf("paths: gather %q: no children", name)
	}
	if helpers < 0 {
		return nil, fmt.Errorf("paths: gather %q: helpers %d < 0", name, helpers)
	}
	g := &Gather{base: base{name, host}, helpers: helpers}
	cp := append([]Wrapper(nil), children...)
	g.children.Store(&cp)
	return g, nil
}

// AddChild appends a child to the gather at runtime.
func (g *Gather) AddChild(c Wrapper) {
	g.mutMu.Lock()
	defer g.mutMu.Unlock()
	old := *g.children.Load()
	cp := make([]Wrapper, 0, len(old)+1)
	cp = append(cp, old...)
	cp = append(cp, c)
	g.children.Store(&cp)
}

// RemoveChild removes a child by identity and reports whether it was
// present. A gather may be left empty: an empty gather answers reads
// with an empty reply until children are added back.
func (g *Gather) RemoveChild(c Wrapper) bool {
	g.mutMu.Lock()
	defer g.mutMu.Unlock()
	old := *g.children.Load()
	cp := make([]Wrapper, 0, len(old))
	found := false
	for _, ch := range old {
		if ch == c && !found {
			found = true
			continue
		}
		cp = append(cp, ch)
	}
	if found {
		g.children.Store(&cp)
	}
	return found
}

// ReplaceChild swaps old for new in place (preserving child order) and
// reports whether old was present.
func (g *Gather) ReplaceChild(old, repl Wrapper) bool {
	g.mutMu.Lock()
	defer g.mutMu.Unlock()
	cur := *g.children.Load()
	cp := append([]Wrapper(nil), cur...)
	for i, ch := range cp {
		if ch == old {
			cp[i] = repl
			g.children.Store(&cp)
			return true
		}
	}
	return false
}

// SetMetrics installs the gather's self-metrics site. nil disables.
func (g *Gather) SetMetrics(op *metrics.Op) *Gather {
	g.met.Store(op)
	return g
}

// Op forwards the read to every child and concatenates the replies in
// child order. Ret accumulates the children's record counts.
func (g *Gather) Op(ctx *Ctx, req Request) (Reply, error) {
	m := g.met.Load()
	if m == nil {
		return g.gather(ctx, req)
	}
	start := hrtime.Now()
	rep, err := g.gather(ctx, req)
	m.Record(hrtime.Since(start), len(rep.Data), err)
	return rep, err
}

func (g *Gather) gather(ctx *Ctx, req Request) (Reply, error) {
	if req.Kind != OpRead {
		return Reply{}, fmt.Errorf("paths: %s: unsupported op %v", g.name, req.Kind)
	}
	children := *g.children.Load()
	var (
		out   []byte
		total int
		err   error
	)
	if g.helpers == 0 {
		out, total, err = g.gatherSequential(ctx, req, children)
	} else {
		out, total, err = g.gatherParallel(ctx, req, children)
	}
	if err != nil {
		return Reply{}, err
	}
	g.lastSize.Store(int64(len(out)))
	if len(out) == 0 {
		out = nil // an empty reply holds on to nobody's buffer
	}
	return Reply{Data: out, Ret: int16(min(total, 1<<15-1))}, nil
}

// gatherSequential reads the children one after the other in the calling
// thread, each handed the tail of the output as its window: a child that
// appends to it (a BatchReader, a nested sequential gather) has put its
// payload in place, any other child's payload is copied behind the last.
// The output is the caller's window when that has room for a reply the
// size of the previous one, else a fresh buffer of that size — the traffic
// is a steady stream, and a short guess only costs an append growth.
// Every child is read even after one has failed (a read drains its
// source, and which sources a failing round drains is part of the
// model); the first failure in child order is the one reported.
func (g *Gather) gatherSequential(ctx *Ctx, req Request, children []Wrapper) (out []byte, total int, err error) {
	out = req.Window
	if guess := int(g.lastSize.Load()); cap(out) < guess {
		out = make([]byte, 0, guess)
	}
	for _, c := range children {
		req.Window = window(out)
		rep, cerr := c.Op(ctx, req)
		switch {
		case err != nil:
		case cerr != nil:
			err = fmt.Errorf("paths: %s: child %s: %w", g.name, c.Name(), cerr)
		default:
			out = wire.Extend(out, rep.Data)
			total += int(rep.Ret)
		}
	}
	return out, total, err
}

// gatherParallel reads the children on helper threads. They run
// concurrently, so none of them gets a window; the output is sized once
// from the sum of what they returned.
func (g *Gather) gatherParallel(ctx *Ctx, req Request, children []Wrapper) (out []byte, total int, err error) {
	out, req.Window = req.Window, nil
	replies := make([]Reply, len(children))
	errs := make([]error, len(children))
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
	size := 0
	for i := range replies {
		if errs[i] != nil {
			return nil, 0, fmt.Errorf("paths: %s: child %s: %w", g.name, children[i].Name(), errs[i])
		}
		size += len(replies[i].Data)
		total += int(replies[i].Ret)
	}
	if cap(out) < size {
		out = make([]byte, 0, size)
	}
	for i := range replies {
		out = append(out, replies[i].Data...)
	}
	return out, total, nil
}
