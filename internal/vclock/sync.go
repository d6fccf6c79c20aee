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
func (w *waiters) wait(l sync.Locker, s site, modelOnly bool) {
	if c.activeA.Load() {
		c.mu.Lock()
		if c.active {
			if g := c.self(); g != nil {
				w.push(g)
				l.Unlock()
				c.park(g, s)
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

// wakeOne dequeues the longest-parked model goroutine for the caller to
// wake or, with none, wakes one waiter outside the model.
func (w *waiters) wakeOne() *gor {
	g := w.pop()
	if g == nil && w.nout > 0 {
		w.nout--
		w.out.Signal()
	}
	return g
}

// wakeAll wakes every waiter outside the model and dequeues the model
// ones, a list linked by next in arrival order, for the caller to wake.
func (w *waiters) wakeAll() *gor {
	if w.nout > 0 {
		w.nout = 0
		w.out.Broadcast()
	}
	g := w.head
	w.head, w.tail = nil, nil
	return g
}

// signal wakes the longest-parked waiter. Caller holds the lock.
func (w *waiters) signal() {
	if g := w.wakeOne(); g != nil {
		unlockOn(lockOn(), g)
	}
}

// broadcast wakes every waiter. Caller holds the lock.
func (w *waiters) broadcast() {
	if g := w.wakeAll(); g != nil {
		unlockOn(lockOn(), g)
	}
}

// lockOn takes the clock's lock if the clock is on and reports whether
// it did. While it is on, a Sem, Event or Queue changes only under that
// lock, which the clock holds when it runs a step; the primitive's own
// mutex is taken inside it, never the other way round.
func lockOn() bool {
	if c.activeA.Load() {
		c.mu.Lock()
		if c.active {
			return true
		}
		c.mu.Unlock()
	}
	return false
}

// unlockOn wakes the model goroutines on list (linked by next), hands
// the clock on if the model is idle, and releases the lock lockOn took
// if on.
func unlockOn(on bool, list *gor) {
	if !on {
		if list == nil {
			return
		}
		c.mu.Lock() // model goroutines left queued when the clock went off
	}
	c.wakeList(list)
	var next *gor
	if c.active && c.cur == nil {
		next = c.dispatch()
	}
	c.mu.Unlock()
	handOff(next)
}

// giveNow runs a give step on the caller.
func giveNow(f fifo, arg any, val []byte) error {
	on := lockOn()
	g, err := f.give(arg, val)
	unlockOn(on, g)
	return err
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
func (cv *Cond) Wait() { cv.w.wait(cv.L, siteCondWait, true) }

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
// While the clock is on, the clock's lock guards a Sem (see lockOn).
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
	steps := [1]step{{op: opTake, obj: s}}
	run(steps[:], siteSemAcquire)
}

// Release returns a slot.
func (s *Sem) Release() { giveNow(s, nil, nil) }

// take claims a slot (see fifo).
func (s *Sem) take(g *gor, _ any) (queued bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.free == 0 {
		if g != nil {
			s.w.push(g)
			return true, nil
		}
		s.w.waitOut(&s.mu)
	}
	s.free--
	return false, nil
}

// give returns a slot and dequeues the longest-waiting model goroutine
// for the caller to wake, or wakes a waiter outside the model.
func (s *Sem) give(any, []byte) (*gor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.free++
	return s.w.wakeOne(), nil
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
		wg.w.wait(&wg.mu, siteWaitGroupWait, false)
	}
	wg.mu.Unlock()
}

// Event is a clock-aware one-shot: one goroutine waits for a value
// another delivers (a request's reply slot, a job's end). Its Wait is
// open to drivers too. The zero value is an unfired event. While the
// clock is on, the clock's lock guards it (see lockOn).
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
func (e *Event) Fire(val []byte, err error) { giveNow(e, err, val) }

// give fires e with val and the error in arg unless it has fired
// already, and returns the model waiters for the caller to wake.
func (e *Event) give(arg any, val []byte) (*gor, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		return nil, nil
	}
	e.done = true
	e.val = val
	e.err, _ = arg.(error)
	return e.w.wakeAll(), nil
}

// Wait blocks until the event fires: a one-step run of the Path
// executor.
func (e *Event) Wait() ([]byte, error) {
	steps := [1]step{{op: opTake, obj: e}}
	run(steps[:], siteEventWait)
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.val, e.err
}

// take waits for e to fire, delivers its value into dst (a *[]byte, or
// nil) and returns its error (see fifo).
func (e *Event) take(g *gor, dst any) (queued bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for !e.done {
		if g != nil {
			e.w.push(g)
			return true, nil
		}
		e.w.waitOut(&e.mu)
	}
	if d, _ := dst.(*[]byte); d != nil {
		*d = e.val
	}
	return false, e.err
}

// Queue is a clock-aware FIFO with close semantics, used as a
// connection's request queue towards its communication thread. Pop is a
// model-only wait. While the clock is on, the clock's lock guards it
// (see lockOn).
type Queue[T any] struct {
	mu     sync.Mutex
	items  []T // the undelivered items are items[head:]
	head   int
	closed bool
	w      waiters
}

// NewQueue returns an empty queue.
func NewQueue[T any]() *Queue[T] { return &Queue[T]{} }

// Push appends an item; it fails once the queue is closed.
func (q *Queue[T]) Push(v T) error {
	on := lockOn()
	g, err := q.put(v)
	unlockOn(on, g)
	return err
}

// put appends v and dequeues the longest-waiting model popper for the
// caller to wake, or wakes a popper outside the model. With the clock on
// the caller holds c.mu.
func (q *Queue[T]) put(v T) (*gor, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, ErrClosed
	}
	if q.head > 0 && len(q.items) == cap(q.items) {
		// Full behind a popped prefix: slide the items down, not grow.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
	return q.w.wakeOne(), nil
}

// give pushes the item in arg (see fifo).
func (q *Queue[T]) give(arg any, _ []byte) (*gor, error) { return q.put(arg.(T)) }

// Pop removes the oldest item, blocking until one is available: a
// one-step run of the Path executor. It returns ok == false as soon as
// the queue is closed, without draining what remains (matching a select
// on a done channel).
func (q *Queue[T]) Pop() (T, bool) {
	var v T
	steps := [1]step{{op: opTake, obj: q, arg: &v}}
	err := run(steps[:], siteQueuePop)
	return v, err == nil
}

// take pops the oldest item into dst (a *T, or nil), or returns
// ErrClosed once q is closed (see fifo).
func (q *Queue[T]) take(g *gor, dst any) (queued bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.closed {
		if q.head < len(q.items) {
			v := q.items[q.head]
			var zero T
			q.items[q.head] = zero
			if q.head++; q.head == len(q.items) {
				// Empty: the next push reuses the storage from its start.
				q.items, q.head = q.items[:0], 0
			}
			if d, _ := dst.(*T); d != nil {
				*d = v
			}
			return false, nil
		}
		if g != nil {
			q.w.push(g)
			return true, nil
		}
		q.w.waitOut(&q.mu)
	}
	return false, ErrClosed
}

// Close marks the queue closed, wakes all poppers, and returns the
// undelivered items so the caller can fail them.
func (q *Queue[T]) Close() []T {
	on := lockOn()
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		unlockOn(on, nil)
		return nil
	}
	q.closed = true
	rest := q.items[q.head:]
	q.items, q.head = nil, 0
	list := q.w.wakeAll()
	q.mu.Unlock()
	unlockOn(on, list)
	return rest
}

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}
