// Package cosched implements the coscheduling of analysis threads with
// computation and communication-system threads (sections 4.1 and 6.3.1).
//
// During a synchronizing collective operation all threads on a host wait
// for data from other hosts; analysis threads can run in that window
// without perturbing the application. The release order is controlled by
// two strategies from the paper:
//
//   - Strategy 1 (AfterSend): analysis threads are blocked until all
//     participating threads have contributed and the combined value has
//     been sent to the next-level host — analysis runs while the host
//     idles waiting for the broadcast.
//   - Strategy 2 (AfterUnblock): analysis threads are blocked until all
//     participating threads have been unblocked — the broadcast is done
//     before analysis runs. This strategy cut statsm overhead from 9% to
//     1% in the paper and is the default for its remaining experiments.
//
// No operating-system scheduler changes are needed: the controller is a
// paths.CollectiveNotifier wired into the host's collective wrappers, and
// analysis threads gate their batches on Waiter.Await.
package cosched

import (
	"sync"

	"eventspace/internal/vclock"
	"eventspace/internal/vnet"
)

// Strategy selects when analysis threads are admitted.
type Strategy int

// Coscheduling strategies.
const (
	// None runs analysis threads freely (the paper's 5-9% overhead
	// baseline).
	None Strategy = iota
	// AfterSend is strategy 1: admit once all local contributors have
	// arrived and the combined value is on its way up.
	AfterSend
	// AfterUnblock is strategy 2: admit once all local contributors have
	// been unblocked by the broadcast.
	AfterUnblock
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case None:
		return "none"
	case AfterSend:
		return "cosched-1"
	case AfterUnblock:
		return "cosched-2"
	default:
		return "strategy(?)"
	}
}

// Controller gates the analysis threads of one host. It implements
// paths.CollectiveNotifier; wire it into every collective wrapper on the
// host with SetNotifier.
type Controller struct {
	strategy Strategy

	mu     sync.Mutex
	cond   *vclock.Cond
	seq    uint64 // admission windows opened so far
	closed bool
}

// NewController creates a controller with the given strategy.
func NewController(strategy Strategy) *Controller {
	c := &Controller{strategy: strategy}
	c.cond = vclock.NewCond(&c.mu)
	return c
}

func (c *Controller) bump() {
	c.mu.Lock()
	c.seq++
	c.cond.Broadcast()
	c.mu.Unlock()
}

// AllSent implements paths.CollectiveNotifier.
func (c *Controller) AllSent(h *vnet.Host) {
	if c.strategy == AfterSend {
		c.bump()
	}
}

// AllReleased implements paths.CollectiveNotifier.
func (c *Controller) AllReleased(h *vnet.Host) {
	if c.strategy == AfterUnblock {
		c.bump()
	}
}

// Windows reports how many admission windows have opened.
func (c *Controller) Windows() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seq
}

// Close releases all waiters permanently (shutdown). Subsequent Await
// calls return false immediately.
func (c *Controller) Close() {
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Waiter is one analysis thread's handle on the controller. Each analysis
// thread creates its own waiter and calls Await before every batch of
// analysis work.
type Waiter struct {
	c      *Controller
	seen   uint64
	closed bool // guarded by c.mu
}

// NewWaiter creates a waiter starting at the current window count.
func (c *Controller) NewWaiter() *Waiter {
	c.mu.Lock()
	defer c.mu.Unlock()
	return &Waiter{c: c, seen: c.seq}
}

// Await blocks until the next admission window opens (or returns
// immediately under Strategy None). It returns false once the waiter or
// its controller is closed.
func (w *Waiter) Await() bool {
	w.c.mu.Lock()
	defer w.c.mu.Unlock()
	if w.c.strategy != None {
		for w.c.seq <= w.seen && !w.c.closed && !w.closed {
			w.c.cond.Wait()
		}
		w.seen = w.c.seq
	}
	return !w.c.closed && !w.closed
}

// Close releases this waiter alone, permanently: a blocked Await and
// every later one return false, while the controller's other waiters
// keep their windows. A monitor's Stop closes its own threads' waiters
// this way, since the controllers are shared by every monitor on the
// host. Close is idempotent.
func (w *Waiter) Close() {
	w.c.mu.Lock()
	w.closed = true
	w.c.cond.Broadcast()
	w.c.mu.Unlock()
}

// Set manages one controller per host, created on demand. Trees wire it in
// via their Notifier hook and monitors gate analysis threads on the same
// controllers.
type Set struct {
	strategy Strategy
	mu       sync.Mutex
	m        map[*vnet.Host]*Controller
}

// NewSet creates an empty controller set with the given strategy.
func NewSet(strategy Strategy) *Set {
	return &Set{strategy: strategy, m: make(map[*vnet.Host]*Controller)}
}

// For returns host's controller, creating it on first use.
func (s *Set) For(h *vnet.Host) *Controller {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.m[h]
	if !ok {
		c = NewController(s.strategy)
		s.m[h] = c
	}
	return c
}

// CloseAll closes every controller, releasing all analysis threads.
func (s *Set) CloseAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.m {
		c.Close()
	}
}
