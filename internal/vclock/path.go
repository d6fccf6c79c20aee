package vclock

import (
	"sync/atomic"
	"time"
)

// pathCap is the most steps a Path holds: enough for a modelled call's
// longest leg, client CPU through two gateways to the far host.
const pathCap = 20

// A Delayer draws a step's delay, for a message of n bytes, at the
// instant the step starts.
type Delayer interface {
	Delay(n int) time.Duration
}

type stepOp uint8

const (
	opSleep stepOp = iota
	opSleepDrawn
	opAcquire
	opRelease
	opAdd
)

// step is one link of a Path.
type step struct {
	op  stepOp
	d   int64 // opSleep: the delay; opAdd: the amount; opSleepDrawn: the size
	sem *Sem
	ctr *atomic.Int64
	src Delayer
}

// Path is a short chain of timed steps — sleeps, CPU slot claims and
// releases, counter updates — that a model goroutine hands to the clock
// in one park. The clock runs each step at its instant, exactly as the
// goroutine would have run it itself (the same fast path for a sleep
// nothing else is due before, the same tie-break draws in the same
// order, the same FIFO waiter lists on a Sem), and switches the
// goroutine back in only when the whole chain is done. The contract is
// the caller's: between the steps the goroutine does nothing another
// goroutine could observe. With the clock off the steps run on the
// caller: a step added to an empty Path runs at once, and Run runs the
// steps queued before the clock went off. A Path lives on the caller's
// stack and allocates nothing.
type Path struct {
	n     int
	steps [pathCap]step
}

// next returns the slot of the step being appended (a step past
// pathCap panics with an index out of range), or nil when the step is to
// run at once instead: the Path is empty and the clock off.
func (p *Path) next() *step {
	if p.n == 0 && !c.activeA.Load() {
		return nil
	}
	p.n++
	return &p.steps[p.n-1]
}

// Sleep appends a wait of d.
func (p *Path) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if st := p.next(); st != nil {
		st.op, st.d = opSleep, int64(d)
	}
}

// SleepDrawn appends a wait whose length src.Delay(n) draws when the
// step starts (on the wall clock too, where the wait itself is nothing).
func (p *Path) SleepDrawn(src Delayer, n int) {
	if st := p.next(); st != nil {
		st.op, st.d, st.src = opSleepDrawn, int64(n), src
	} else {
		src.Delay(n)
	}
}

// Acquire appends a claim of one of s's slots, waiting in s's FIFO
// until one is free.
func (p *Path) Acquire(s *Sem) {
	if st := p.next(); st != nil {
		st.op, st.sem = opAcquire, s
	} else {
		s.acquireOff()
	}
}

// Release appends the return of a slot of s.
func (p *Path) Release(s *Sem) {
	if st := p.next(); st != nil {
		st.op, st.sem = opRelease, s
	} else {
		s.Release()
	}
}

// Add appends adding v to ctr.
func (p *Path) Add(ctr *atomic.Int64, v int64) {
	if st := p.next(); st != nil {
		st.op, st.d, st.ctr = opAdd, v, ctr
	} else {
		ctr.Add(v)
	}
}

// Run runs the steps in order and returns when the last is done,
// leaving the Path empty for the next chain. Under the active clock it
// is a model-only wait (it panics with ErrUnregistered from a goroutine
// Go did not start).
func (p *Path) Run() {
	n := p.n
	if n == 0 {
		return
	}
	p.n = 0
	run(p.steps[:n], "Path")
}

// run is the one executor of steps — a Path's, and the single step of a
// Sleep or a Sem.Acquire — and returns when the last is done. Under the
// active clock advance runs them: on the caller for as long as it need
// not wait, then from the goroutine's buffer in the hand-offs that
// dispatch it, while the goroutine stays parked on what; it is switched
// back in once the chain is done. With the clock off, or once it has
// gone off while the goroutine waited, runOff runs what is left.
func run(steps []step, what string) {
	if c.activeA.Load() {
		c.mu.Lock()
		if c.active {
			g := c.self()
			if g == nil {
				c.mu.Unlock()
				panic(ErrUnregistered)
			}
			done, waiting := c.advance(g, steps)
			if !waiting {
				c.mu.Unlock()
				return
			}
			if done == len(steps) {
				c.park(g, what)
				return
			}
			// g is queued: hand the rest to the clock in g's buffer.
			if g.path == nil {
				g.path = c.pathBuf()
			}
			pb := g.path
			pb.n, pb.pc = copy(pb.steps[:], steps[done:]), 0
			c.park(g, what)
			if pb.pc < pb.n {
				runOff(pb.steps[pb.pc:pb.n])
			}
			pb.clear()
			return
		}
		c.mu.Unlock()
	}
	runOff(steps)
}

// pathBuf is a model goroutine's copy of the Path it is running: the
// steps and the next one due.
type pathBuf struct {
	n, pc int
	steps [pathCap]step
}

// clear drops the references the finished steps hold.
func (pb *pathBuf) clear() {
	clear(pb.steps[:pb.n])
	pb.n, pb.pc = 0, 0
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

// runOff runs steps on the caller with the clock off: sleeps are
// nothing, a delay is still drawn, slots are claimed and returned as a
// plain semaphore's.
func runOff(steps []step) {
	for i := range steps {
		st := &steps[i]
		switch st.op {
		case opSleepDrawn:
			st.src.Delay(int(st.d))
		case opAcquire:
			st.sem.acquireOff()
		case opRelease:
			st.sem.Release()
		case opAdd:
			st.ctr.Add(st.d)
		}
	}
}

// advance runs steps for g, in order, for as long as g need not wait,
// and returns how many it finished and whether g now waits. A step that
// must wait queues g — on the ready heap for a sleep (which counts as
// finished: it ends when g is dispatched), on the Sem's waiter list for
// a slot (which does not: it is taken again then); the caller parks g
// or, in dispatch, moves on. Each step does what the goroutine itself
// would have done at that point, in the same order. Caller holds c.mu
// and the clock is on.
func (c *clock) advance(g *gor, steps []step) (done int, waiting bool) {
	for i := range steps {
		st := &steps[i]
		switch st.op {
		case opSleep, opSleepDrawn:
			d := st.d
			if st.op == opSleepDrawn {
				d = int64(st.src.Delay(int(st.d)))
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
			return i + 1, true
		case opAcquire:
			if !st.sem.take(g) {
				return i, true
			}
		case opRelease:
			if w := st.sem.give(); w != nil {
				c.wakeUp(w)
			}
		case opAdd:
			st.ctr.Add(st.d)
		}
	}
	return len(steps), false
}
