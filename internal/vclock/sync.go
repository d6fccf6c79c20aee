package vclock

import (
	"errors"
	"sync"
)

// ErrClosed is returned when pushing to a closed Queue.
var ErrClosed = errors.New("vclock: queue closed")

// waiters is one primitive's parked goroutines, guarded by the
// primitive's lock. Model goroutines queue in arrival order and park on
// the run queue; goroutines outside the model (drivers, and every caller
// while the clock is off) wait on a sync.Cond over the same lock, made on
// first use. Wakers prefer model goroutines.
type waiters struct {
	head, tail *gor
	out        *sync.Cond
	nout       int
}

// wait parks the caller until a signal or broadcast wakes it. The
// caller holds l, which wait releases while parked and holds again on
// return. A model-only wait from a goroutine outside the model panics
// with ErrUnregistered under the active clock.
func (w *waiters) wait(l sync.Locker, what string, modelOnly bool) {
	if c.activeA.Load() {
		c.mu.Lock()
		if c.active {
			if g := c.self(); g != nil {
				w.push(g)
				l.Unlock()
				c.park(g, what)
				l.Lock()
				return
			}
			if modelOnly {
				c.mu.Unlock()
				panic(ErrUnregistered)
			}
		}
		c.mu.Unlock()
	}
	w.waitOut(l)
}

// push queues model goroutine g last in line.
func (w *waiters) push(g *gor) {
	g.next = nil
	if w.tail == nil {
		w.head = g
	} else {
		w.tail.next = g
	}
	w.tail = g
}

// pop dequeues the longest-parked model goroutine, or returns nil.
func (w *waiters) pop() *gor {
	g := w.head
	if g != nil {
		w.head = g.next
		if w.head == nil {
			w.tail = nil
		}
		g.next = nil
	}
	return g
}

// waitOut waits, outside the model, for a signal or broadcast. The
// caller holds l.
func (w *waiters) waitOut(l sync.Locker) {
	if w.out == nil {
		w.out = sync.NewCond(l)
	}
	w.nout++
	w.out.Wait()
}

// signalOut wakes one waiter outside the model, if any.
func (w *waiters) signalOut() {
	if w.nout > 0 {
		w.nout--
		w.out.Signal()
	}
}

// signal wakes the longest-parked waiter. Caller holds the lock.
func (w *waiters) signal() {
	if g := w.pop(); g != nil {
		c.mu.Lock()
		next := c.wakeUp(g)
		c.mu.Unlock()
		handOff(next)
		return
	}
	w.signalOut()
}

// broadcast wakes every waiter. Caller holds the lock.
func (w *waiters) broadcast() {
	if w.head != nil {
		var next *gor
		c.mu.Lock()
		for g := w.head; g != nil; {
			n := g.next
			g.next = nil
			if r := c.wakeUp(g); r != nil {
				next = r
			}
			g = n
		}
		c.mu.Unlock()
		w.head, w.tail = nil, nil
		handOff(next)
	}
	if w.nout > 0 {
		w.nout = 0
		w.out.Broadcast()
	}
}

// Cond is a clock-aware condition variable. Wait, Signal and Broadcast
// must be called with L held. Wait is a model-only wait. With the clock
// disabled it behaves exactly like sync.Cond.
type Cond struct {
	L sync.Locker
	w waiters
}

// NewCond returns a condition variable bound to l.
func NewCond(l sync.Locker) *Cond { return &Cond{L: l} }

// Wait atomically releases L and suspends the caller until signalled.
func (cv *Cond) Wait() { cv.w.wait(cv.L, "Cond.Wait", true) }

// Signal wakes one waiter.
func (cv *Cond) Signal() { cv.w.signal() }

// Broadcast wakes all waiters.
func (cv *Cond) Broadcast() { cv.w.broadcast() }

// Sem is a clock-aware counting semaphore; it replaces the buffered
// channel commonly used for CPU slots. A release wakes the
// longest-waiting acquirer, which takes the slot when it runs unless the
// releaser took it back first: a goroutine that releases and acquires
// again at one instant keeps its slot, as a running thread keeps its CPU
// across back-to-back compute sections. Acquire is a model-only wait.
//
// While the clock is on, a Sem's state is guarded by the clock's lock:
// every change to it happens under c.mu, which the clock already holds
// when it runs a Path's slot steps in a hand-off, and mu is taken only
// inside c.mu. With the clock off mu alone guards it. Nothing that holds
// mu takes c.mu, so the two orders never meet.
type Sem struct {
	mu   sync.Mutex
	free int
	w    waiters
}

// NewSem creates a semaphore with n slots.
func NewSem(n int) *Sem { return &Sem{free: n} }

// Acquire claims a slot, blocking until one is free: a one-step run of
// the Path executor.
func (s *Sem) Acquire() {
	steps := [1]step{{op: opAcquire, sem: s}}
	run(steps[:], "Sem.Acquire")
}

// acquireOff claims a slot with the clock off, blocking until one is
// free.
func (s *Sem) acquireOff() {
	s.mu.Lock()
	for s.free == 0 {
		s.w.waitOut(&s.mu)
	}
	s.free--
	s.mu.Unlock()
}

// Release returns a slot.
func (s *Sem) Release() {
	if c.activeA.Load() {
		c.mu.Lock()
		if c.active {
			var next *gor
			if g := s.give(); g != nil {
				next = c.wakeUp(g)
			}
			c.mu.Unlock()
			handOff(next)
			return
		}
		c.mu.Unlock()
	}
	if g := s.give(); g != nil {
		// A model goroutine left queued when the clock went off.
		g.wake <- struct{}{}
	}
}

// take claims a slot for g, or queues g last in line and reports false.
// With the clock on the caller holds c.mu.
func (s *Sem) take(g *gor) bool {
	s.mu.Lock()
	if s.free > 0 {
		s.free--
		s.mu.Unlock()
		return true
	}
	s.w.push(g)
	s.mu.Unlock()
	return false
}

// give returns a slot and dequeues the longest-waiting model goroutine
// for the caller to wake, or signals a waiter outside the model. With
// the clock on the caller holds c.mu.
func (s *Sem) give() *gor {
	s.mu.Lock()
	s.free++
	g := s.w.pop()
	if g == nil {
		s.w.signalOut()
	}
	s.mu.Unlock()
	return g
}

// WaitGroup is a clock-aware sync.WaitGroup replacement for joins inside
// the model (e.g. parallel gather helpers). Its Wait is open to drivers
// too: a goroutine outside the model waits without taking part in it.
type WaitGroup struct {
	mu sync.Mutex
	n  int
	w  waiters
}

// NewWaitGroup returns an empty wait group.
func NewWaitGroup() *WaitGroup { return &WaitGroup{} }

// Add adds delta to the counter.
func (wg *WaitGroup) Add(delta int) {
	wg.mu.Lock()
	wg.n += delta
	if wg.n < 0 {
		wg.mu.Unlock()
		panic("vclock: negative WaitGroup counter")
	}
	if wg.n == 0 {
		wg.w.broadcast()
	}
	wg.mu.Unlock()
}

// Done decrements the counter.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks until the counter reaches zero.
func (wg *WaitGroup) Wait() {
	wg.mu.Lock()
	for wg.n > 0 {
		wg.w.wait(&wg.mu, "WaitGroup.Wait", false)
	}
	wg.mu.Unlock()
}

// Event is a clock-aware one-shot: one goroutine waits for a value
// another delivers (a request's reply slot, a job's end). Its Wait is
// open to drivers too. The zero value is an unfired event.
type Event struct {
	mu   sync.Mutex
	done bool
	val  []byte
	err  error
	w    waiters
}

// NewEvent returns an unfired event.
func NewEvent() *Event { return &Event{} }

// Fire delivers the value; only the first call wins.
func (e *Event) Fire(val []byte, err error) {
	e.mu.Lock()
	if !e.done {
		e.done = true
		e.val, e.err = val, err
		e.w.broadcast()
	}
	e.mu.Unlock()
}

// Wait blocks until the event fires.
func (e *Event) Wait() ([]byte, error) {
	e.mu.Lock()
	for !e.done {
		e.w.wait(&e.mu, "Event.Wait", false)
	}
	val, err := e.val, e.err
	e.mu.Unlock()
	return val, err
}

// Queue is a clock-aware FIFO with close semantics, used as a
// connection's request queue towards its communication thread. Pop is a
// model-only wait.
type Queue[T any] struct {
	mu     sync.Mutex
	items  []T
	closed bool
	w      waiters
}

// NewQueue returns an empty queue.
func NewQueue[T any]() *Queue[T] { return &Queue[T]{} }

// Push appends an item; it fails once the queue is closed.
func (q *Queue[T]) Push(v T) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return ErrClosed
	}
	q.items = append(q.items, v)
	q.w.signal()
	q.mu.Unlock()
	return nil
}

// Pop removes the oldest item, blocking until one is available. It
// returns ok == false as soon as the queue is closed, without draining
// what remains (matching a select on a done channel).
func (q *Queue[T]) Pop() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.closed {
			var zero T
			return zero, false
		}
		if len(q.items) > 0 {
			v := q.items[0]
			var zero T
			q.items[0] = zero
			q.items = q.items[1:]
			return v, true
		}
		q.w.wait(&q.mu, "Queue.Pop", true)
	}
}

// Close marks the queue closed, wakes all poppers, and returns the
// undelivered items so the caller can fail them.
func (q *Queue[T]) Close() []T {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil
	}
	q.closed = true
	rest := q.items
	q.items = nil
	q.w.broadcast()
	q.mu.Unlock()
	return rest
}

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}
