// Package vclock implements the discrete-event virtual clock that the
// experiment harness runs the testbed under.
//
// The reproduction models every delay — link latencies, thread wakeups,
// CPU occupancy — as a wait. Executing those waits in real time couples
// the model to the machine running it: on a small machine the monitor's
// real bookkeeping work stretches the application's modelled delays,
// polluting exactly the overhead percentages the paper measures. Under
// the virtual clock, waits suspend goroutines logically; when every
// registered goroutine is blocked (in a virtual sleep or on a
// clock-aware synchronization primitive), the clock jumps to the next
// deadline. Modelled time then depends only on the model, never on how
// fast the host executes it, and runs complete as fast as the events can
// be processed. Timing is exact; ties between events at the same virtual
// instant (e.g. two goroutines racing for a CPU slot) may resolve in
// either order, as they would on real hardware.
//
// The clock is conservative: it needs to know about every goroutine that
// participates in the model and about every blocking point. Participants
// are spawned with Go, the one way into the model; blocking synchronization
// uses the clock-aware Cond, Sem, WaitGroup, Event and Queue primitives,
// which behave like their sync counterparts when the clock is disabled. A
// registered goroutine must never block on a plain channel or sync
// primitive while the clock is active — the clock would consider it
// runnable and stall (ErrStalled panics flag the inverse case, where
// everyone is blocked but no timer is pending).
package vclock

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the process-global virtual clock. A singleton keeps the
// instrumentation burden on callers low (mirroring package hrtime).
type clock struct {
	mu      sync.Mutex
	active  bool
	now     int64 // virtual nanoseconds
	running int   // registered goroutines currently runnable
	live    int   // registered goroutines alive (runnable or blocked)
	timers  timerHeap

	// Lock-free mirrors of active and now for Active and Now, which every
	// timestamp calls: written under mu wherever the locked fields change
	// (Enable, Disable, advanceLocked), read without it. The locked
	// fields stay the source of truth for the scheduler. The time's
	// mirror is stored before the timer channels of its instant are
	// closed, so a goroutine woken from a sleep never reads a time older
	// than its deadline.
	activeA atomic.Bool
	nowA    atomic.Int64
}

var c clock

type timer struct {
	when    int64
	ch      chan struct{}
	outside bool // sleeper is not a registered goroutine (SleepOutside)
}

// timerHeap is a minimal binary min-heap of timers ordered by deadline.
type timerHeap []timer

func (h *timerHeap) push(t timer) {
	*h = append(*h, t)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p].when <= (*h)[i].when {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *timerHeap) pop() timer {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && (*h)[l].when < (*h)[small].when {
			small = l
		}
		if r < n && (*h)[r].when < (*h)[small].when {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}

// Enable switches the process to virtual time starting at start
// nanoseconds. It must be called while no registered goroutines exist
// (see Quiesce).
func Enable(start int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.live != 0 || c.running != 0 {
		panic(fmt.Sprintf("vclock: Enable with %d live / %d running goroutines", c.live, c.running))
	}
	c.active, c.now = true, start
	c.nowA.Store(start)
	c.activeA.Store(true)
	c.timers = c.timers[:0]
}

// Disable returns the process to real time.
func Disable() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.active = false
	c.activeA.Store(false)
	// Release any leftover timers so no goroutine hangs forever.
	for len(c.timers) > 0 {
		t := c.timers.pop()
		close(t.ch)
	}
	c.running = 0
	c.live = 0
}

// Active reports whether virtual time is in effect. It takes no lock.
func Active() bool { return c.activeA.Load() }

// Now returns the current virtual time in nanoseconds (the time the clock
// last stood at when disabled, 0 if it never ran). It takes no lock.
func Now() int64 { return c.nowA.Load() }

// advanceLocked fires due timers or jumps to the next deadline whenever
// nothing is runnable. Caller holds c.mu.
func (c *clock) advanceLocked() {
	for c.active && c.running == 0 && len(c.timers) > 0 {
		next := c.timers[0].when
		if next > c.now {
			c.now = next
			c.nowA.Store(next)
		}
		for len(c.timers) > 0 && c.timers[0].when <= c.now {
			t := c.timers.pop()
			if !t.outside {
				c.running++
			}
			close(t.ch)
		}
	}
	// running == 0 with no timers is a legal idle state: every model
	// goroutine is parked on a condition and progress will come from
	// outside the model (an unregistered driver starting the next
	// phase, or a teardown broadcast). Time simply stands still. A true
	// deadlock therefore shows up as a hang, caught by test timeouts;
	// Stats exposes the bookkeeping for diagnosis.
}

// Go runs fn as a registered model goroutine. When the clock is disabled
// it is a plain goroutine.
func Go(fn func()) {
	c.mu.Lock()
	if !c.active {
		c.mu.Unlock()
		go fn()
		return
	}
	c.running++
	c.live++
	c.mu.Unlock()
	go func() {
		defer func() {
			c.mu.Lock()
			c.running--
			c.live--
			c.advanceLocked()
			c.mu.Unlock()
		}()
		fn()
	}()
}

// Sleep suspends the calling registered goroutine for d of virtual time.
// It must only be called from registered goroutines while the clock is
// active; it falls through immediately when the clock is disabled (the
// caller is expected to have handled real-time sleeping itself).
func Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	if !c.active {
		c.mu.Unlock()
		return
	}
	ch := make(chan struct{})
	c.timers.push(timer{when: c.now + int64(d), ch: ch})
	c.running--
	c.advanceLocked()
	c.mu.Unlock()
	<-ch
}

// SleepOutside suspends an unregistered (driver) goroutine until the
// virtual clock reaches now+d. Unlike Sleep it leaves the runnable count
// alone on both ends: the caller was never part of the model, so parking
// it must not let the clock advance past a still-runnable model
// goroutine, and waking it re-adds nothing. The deadline still behaves
// like any other pending wakeup — the timer fires once every registered
// goroutine is blocked and the clock reaches it. Calling plain Sleep
// from an unregistered goroutine instead corrupts the runnable count
// (it decrements a credit it never added), which lets the clock run
// ahead of freshly spawned model goroutines.
func SleepOutside(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	if !c.active {
		c.mu.Unlock()
		return
	}
	ch := make(chan struct{})
	c.timers.push(timer{when: c.now + int64(d), ch: ch, outside: true})
	// The model may already be idle; nobody else would advance then.
	c.advanceLocked()
	c.mu.Unlock()
	<-ch
}

// block marks the caller blocked on an external condition. The waker is
// responsible for re-adding it via addRunning before (or as part of)
// signalling.
func block() {
	c.mu.Lock()
	if c.active {
		c.running--
		c.advanceLocked()
	}
	c.mu.Unlock()
}

// addRunning re-adds n goroutines the caller is about to wake.
func addRunning(n int) {
	if n == 0 {
		return
	}
	c.mu.Lock()
	if c.active {
		c.running += n
	}
	c.mu.Unlock()
}

// Quiesce blocks until every registered goroutine has exited, then
// returns true. It gives up after the timeout (real time).
func Quiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		live := c.live
		active := c.active
		c.mu.Unlock()
		if live == 0 || !active {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// Stats reports the clock's bookkeeping (for tests and diagnostics).
func Stats() (now int64, running, live, timers int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now, c.running, c.live, len(c.timers)
}
