package vclock

import (
	"sync/atomic"
	"time"
)

// pathCap is the most steps a Path holds: enough for a modelled call's
// round trip, client CPU through two gateways to the far host and back.
const pathCap = 40

// A Delayer draws a step's delay, for a message of n bytes, at the
// instant the step starts.
type Delayer interface {
	Delay(n int) time.Duration
}

type stepOp uint8

const (
	opSleep stepOp = iota
	opSleepDrawn
	opAdd
	opTake // a slot claim, a pop, a wait
	opGive // a slot release, a push, a fire
)

// step is one link of a Path.
type step struct {
	op  stepOp
	d   int64 // opSleep: the delay; opAdd: the amount; opSleepDrawn: the size
	obj fifo
	arg any    // opSleepDrawn: the Delayer; opAdd: the counter; the rest: obj's argument
	val []byte // a fire's value
}

// A fifo is a primitive a step takes from or gives to: a Sem's slots, a
// Queue's items, an Event's value. With the clock on and g set the
// caller holds c.mu.
type fifo interface {
	// take takes what there is, into dst if it is a value, and returns
	// the error that ends the chain, if any. With nothing there it
	// queues model goroutine g last in line and reports queued or,
	// outside the model (g nil), blocks until there is.
	take(g *gor, dst any) (queued bool, err error)
	// give hands over arg and val and returns the model goroutines to
	// wake, or the error that ends the chain.
	give(arg any, val []byte) (*gor, error)
}

// Path is a short chain of timed steps — sleeps, CPU slot claims and
// releases, counter updates, and the hand-offs between goroutines: a
// Queue push or pop, an Event wait or fire — that a model goroutine
// hands to the clock in one park. The clock runs each step at its
// instant, exactly as the goroutine would have run it itself (the same
// fast path for a sleep nothing else is due before, the same tie-break
// draws in the same order, the same FIFO waiter lists), and switches the
// goroutine back in only when the chain is done or a step ends it. The
// contract is the caller's: between the steps the goroutine does nothing
// another goroutine could observe, and a value handed across goroutines
// (a popped item, an event's value) is taken at its step's instant,
// where later steps read it only through their Delayers. With the clock
// off the steps run on the caller: a step added to an empty Path runs at
// once, and Run runs the steps queued before the clock went off. A Path
// lives on the caller's stack and allocates nothing.
type Path struct {
	n     int
	err   error // a step run at once ended the chain
	steps [pathCap]step
}

// put writes the step being appended in place, the fields its op reads
// (a step past pathCap panics with an index out of range), and queues it
// or, on an empty Path with the clock off, runs it at once. A chain that
// has ended takes no more steps.
func (p *Path) put(op stepOp, d int64, obj fifo, arg any) {
	st := &p.steps[p.n]
	st.op, st.d, st.obj, st.arg = op, d, obj, arg
	switch {
	case p.err != nil:
	case p.n > 0 || c.activeA.Load():
		p.n++
	default:
		p.err = runOff(p.steps[:1])
	}
}

// Sleep appends a wait of d.
func (p *Path) Sleep(d time.Duration) {
	if d > 0 {
		p.put(opSleep, int64(d), nil, nil)
	}
}

// SleepDrawn appends a wait whose length src.Delay(n) draws when the
// step starts (on the wall clock too, where the wait itself is nothing).
func (p *Path) SleepDrawn(src Delayer, n int) { p.put(opSleepDrawn, int64(n), nil, src) }

// Acquire appends a claim of one of s's slots, waiting in s's FIFO
// until one is free.
func (p *Path) Acquire(s *Sem) { p.put(opTake, 0, s, nil) }

// Release appends the return of a slot of s.
func (p *Path) Release(s *Sem) { p.put(opGive, 0, s, nil) }

// Add appends adding v to ctr.
func (p *Path) Add(ctr *atomic.Int64, v int64) { p.put(opAdd, v, nil, ctr) }

// Wait appends a wait, in e's FIFO, for e to fire; the step takes e's
// value into dst (if not nil) and ends the chain with e's error, if any.
func (p *Path) Wait(e *Event, dst *[]byte) { p.put(opTake, 0, e, dst) }

// Fire appends firing e with val and err.
func (p *Path) Fire(e *Event, val []byte, err error) {
	p.steps[p.n].val = val
	p.put(opGive, 0, e, err)
}

// PushStep appends to p a push of v onto q (a Path method cannot take
// q's item type); a closed queue ends the chain with ErrClosed. A
// pointer item costs no allocation.
func (q *Queue[T]) PushStep(p *Path, v T) { p.put(opGive, 0, q, v) }

// PopStep appends to p a pop of q's oldest item into *dst, waiting in
// q's FIFO until there is one; a closed queue ends the chain with
// ErrClosed.
func (q *Queue[T]) PopStep(p *Path, dst *T) { p.put(opTake, 0, q, dst) }

// Run runs the steps in order and returns when the last is done or one
// ends the chain, with its error, leaving the Path empty for the next
// chain. Under the active clock it is a model-only wait (it panics with
// ErrUnregistered from a goroutine Go did not start).
func (p *Path) Run() error {
	n, err := p.n, p.err
	p.n, p.err = 0, nil
	if n > 0 {
		err = run(p.steps[:n], sitePath)
	}
	return err
}

// run is the one executor of steps — a Path's, and the single step of a
// Sleep, a Sem.Acquire, a Queue.Pop or an Event.Wait — and returns when
// the last is done or one ends the chain, with that step's error. Under
// the active clock advance runs them: on the caller for as long as it
// need not wait, then from the goroutine's buffer in the hand-offs that
// dispatch it, while the goroutine stays parked on s; it is switched
// back in once the chain is done. With the clock off, or once it has
// gone off while the goroutine waited, runOff runs what is left. An
// Event.Wait from a goroutine outside the model runs off the clock too.
func run(steps []step, s site) error {
	if c.activeA.Load() {
		c.mu.Lock()
		if c.active {
			g := c.self()
			if g == nil {
				c.mu.Unlock()
				if s != siteEventWait {
					panic(ErrUnregistered)
				}
				return runOff(steps)
			}
			done, waiting, err := c.advance(g, steps)
			if !waiting {
				c.mu.Unlock()
				return err
			}
			if done == len(steps) {
				c.park(g, s)
				return nil
			}
			// g is queued: hand the rest to the clock in g's buffer.
			if g.path == nil {
				g.path = c.pathBuf()
			}
			pb := g.path
			pb.n, pb.pc = copy(pb.steps[:], steps[done:]), 0
			c.park(g, s)
			err = pb.err
			if err == nil && pb.pc < pb.n {
				err = runOff(pb.steps[pb.pc:pb.n])
			}
			pb.clear()
			return err
		}
		c.mu.Unlock()
	}
	return runOff(steps)
}

// pathBuf is a model goroutine's copy of the Path it is running: the
// steps, the next one due and the error that ended the chain.
type pathBuf struct {
	n, pc int
	err   error
	steps [pathCap]step
}

// clear drops the references the finished steps hold.
func (pb *pathBuf) clear() {
	clear(pb.steps[:pb.n])
	pb.n, pb.pc, pb.err = 0, 0, nil
}

// pathBuf returns a spare buffer or a new one. Caller holds c.mu.
func (c *clock) pathBuf() *pathBuf {
	if n := len(c.spare); n > 0 {
		pb := c.spare[n-1]
		c.spare = c.spare[:n-1]
		return pb
	}
	return new(pathBuf)
}

// runOff runs steps on the caller with the clock off (or, for an
// Event.Wait, outside the model): sleeps are nothing, a delay is still
// drawn, takes block as their sync counterparts do. It stops at a step
// that ends the chain and returns its error.
func runOff(steps []step) error {
	for i := range steps {
		st := &steps[i]
		var err error
		switch st.op {
		case opSleepDrawn:
			st.arg.(Delayer).Delay(int(st.d))
		case opAdd:
			st.arg.(*atomic.Int64).Add(st.d)
		case opTake:
			_, err = st.obj.take(nil, st.arg)
		case opGive:
			err = giveNow(st.obj, st.arg, st.val)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// advance runs steps for g, in order, for as long as g need not wait,
// and returns how many it finished, whether g now waits and the error
// of a step that ended the chain (counted as finished). A step that
// must wait queues g — on the ready heap for a sleep (which counts as
// finished: it ends when g is dispatched), in a fifo's line for a take
// (which does not: it is taken again then); the caller parks g or, in
// dispatch, moves on. Each step does what the goroutine itself would
// have done at that point, in the same order; a goroutine a give wakes
// is queued at the current instant, never dispatched, since g holds the
// clock. Caller holds c.mu and the clock is on.
func (c *clock) advance(g *gor, steps []step) (done int, waiting bool, err error) {
	for i := range steps {
		st := &steps[i]
		switch st.op {
		case opSleep, opSleepDrawn:
			d := st.d
			if st.op == opSleepDrawn {
				d = int64(st.arg.(Delayer).Delay(int(st.d)))
			}
			if d <= 0 {
				continue
			}
			// Nothing else is due by the deadline: keep the clock and jump.
			when := c.now + d
			if len(c.ready) == 0 || c.ready[0].when > when {
				c.setNow(when)
				c.fastSleeps++
				continue
			}
			c.enqueue(g, when)
			return i + 1, true, nil
		case opAdd:
			st.arg.(*atomic.Int64).Add(st.d)
		case opTake:
			var queued bool
			if queued, err = st.obj.take(g, st.arg); queued {
				return i, true, nil
			}
		case opGive:
			var w *gor
			w, err = st.obj.give(st.arg, st.val)
			c.wakeList(w)
		}
		if err != nil {
			return i + 1, false, err
		}
	}
	return len(steps), false, nil
}
