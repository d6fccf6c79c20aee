// Package vclock implements the discrete-event virtual clock that the
// experiment harness runs the testbed under.
//
// The reproduction models every delay — link latencies, thread wakeups,
// CPU occupancy — as a wait. Executing those waits in real time couples
// the model to the machine running it: on a small machine the monitor's
// real bookkeeping work stretches the application's modelled delays,
// polluting exactly the overhead percentages the paper measures. Under
// the virtual clock, waits suspend goroutines logically and the clock
// jumps to the next deadline once nothing is left to run at the current
// instant. Modelled time then depends only on the model, never on how
// fast the host executes it, and runs complete as fast as the events can
// be processed.
//
// The clock is a run queue. Exactly one model goroutine runs at a time:
// it holds the clock until it parks — in Sleep or on one of the
// clock-aware Cond, Sem, WaitGroup, Event and Queue primitives — and
// parking hands the clock straight to the next ready entry, woken through
// the goroutine's own park slot. Ready entries are ordered by (deadline,
// tie-break, spawn sequence). The tie-break comes from the seed given to
// Enable: under seed 0 (DefaultSeed) it is the enqueue count, so entries
// due at one virtual instant run in the order they became ready; any
// other seed shuffles them with a seeded PRNG. Either way the order
// depends only on the seed: the same seed replays the same interleaving,
// byte for byte, and another seed picks another legal one (no wakeup
// before its deadline, every primitive's own order kept). Since the model
// never runs two goroutines at once, Enable sets GOMAXPROCS to 1 and
// Disable puts it back: a second processor would only add an idle
// processor's wakeup to every hand-off.
//
// A goroutine whose next few waits are fixed — sleeps and CPU slot
// claims with nothing observable between them — hands them over as one
// Path: the clock runs each step inside its hand-offs, exactly as the
// goroutine would have, and switches the goroutine back in once the
// chain is done.
//
// Participants are spawned with Go, the one way into the model. A model
// goroutine must never block on a plain channel or sync primitive while
// the clock is active: it would hold the clock and stall every other
// model goroutine. Goroutines Go did not start (drivers) stand outside
// the model: they may spawn model goroutines, wake them, wait for the
// model with SleepOutside, Event.Wait or WaitGroup.Wait, and otherwise
// run concurrently with it; Sleep, Cond.Wait, Sem.Acquire and Queue.Pop
// from such a goroutine panic with ErrUnregistered, since they can only
// mean a model goroutine started without Go. With the clock disabled
// every primitive behaves like its sync counterpart.
//
// A model that stops making progress is reported, not left hanging:
// Quiesce returns a *Stall naming every goroutine still in the model,
// what it is parked on and where it was spawned.
package vclock

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultSeed is the tie-break seed core.RunVirtual runs the model
// under: seed 0 runs the entries due at one virtual instant in the order
// they became ready, the usual discrete-event rule.
const DefaultSeed uint64 = 0

// ErrUnregistered is the panic value of a model-only wait (Sleep,
// Cond.Wait, Sem.Acquire, Queue.Pop) called under the active clock from
// a goroutine Go did not start.
var ErrUnregistered = errors.New("vclock: model wait from a goroutine vclock.Go did not start (a driver waits with SleepOutside, Event.Wait or WaitGroup.Wait)")

// ErrSleepOutsideInModel is the panic value of SleepOutside called by a
// model goroutine, which would hold the clock while it waits for the
// clock to move: a model goroutine sleeps with Sleep.
var ErrSleepOutsideInModel = errors.New("vclock: SleepOutside from a model goroutine (a model goroutine sleeps with Sleep)")

// gor is one registered model goroutine: its place in the ready queue,
// its park slot, and what the stall report says about it.
type gor struct {
	id    atomic.Uintptr // runtime goroutine identity, set when it first runs
	wake  chan struct{}  // the park slot: one send per dispatch
	seq   uint64         // spawn sequence, the last tie-break
	epoch uint64         // the Enable it was spawned under
	what  string         // the primitive it last parked on
	fn    uintptr        // entry PC of the spawned function

	next         *gor // a primitive's waiter list
	lprev, lnext *gor // the live list

	// path is the Path the goroutine is running, while it runs one:
	// a ready entry of a goroutine with a path runs the path's next
	// steps, not the goroutine.
	path *pathBuf
}

// outsideTimer is a SleepOutside wait: a driver parked until the clock
// reaches when.
type outsideTimer struct {
	when int64
	ch   chan struct{}
}

// clock is the process-global virtual clock. A singleton keeps the
// instrumentation burden on callers low (mirroring package hrtime).
type clock struct {
	mu      sync.Mutex
	active  bool
	now     int64  // virtual nanoseconds
	epoch   uint64 // bumped by Enable
	seed    uint64 // tie-break seed; 0: first in, first out
	rng     uint64 // tie-break state
	spawned uint64 // spawn sequence
	cur     *gor   // the goroutine holding the clock; nil: the model is idle
	ready   readyHeap
	outside []outsideTimer // by deadline; few, as only drivers sleep outside
	live    int
	head    *gor // live list
	procs   int  // GOMAXPROCS before Enable, put back by Disable
	// dispatches counts hand-offs, so Quiesce can tell an idle model
	// from one that is still moving.
	dispatches uint64
	// woke is set when a dispatch fired outside timers: the model
	// goroutine handing off yields its processor first, so the drivers
	// it woke run at the instant they woke instead of waiting out the
	// model's time slice on the one processor.
	woke bool

	spare []*pathBuf // path buffers of exited goroutines, for reuse

	// Counters (see Counters): fast-path sleeps and the path steps
	// dispatch ran under mu, switches lock-free as handOff counts them.
	fastSleeps uint64
	pathSteps  uint64
	switches   atomic.Uint64

	// Lock-free mirrors of active and now for Active and Now, which every
	// timestamp calls: written under mu wherever the locked fields change,
	// read without it. The time's mirror is stored before the goroutine
	// due at it is woken, so a goroutine woken from a sleep never reads a
	// time older than its deadline.
	activeA atomic.Bool
	nowA    atomic.Int64
}

var c clock

// entry is one ready-queue slot: a goroutine and the key it runs by,
// kept inline so ordering the heap reads no goroutine.
type entry struct {
	when int64
	tie  uint64
	seq  uint64
	g    *gor
}

// before orders entries by (when, tie, seq).
func (a *entry) before(b *entry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.tie != b.tie {
		return a.tie < b.tie
	}
	return a.seq < b.seq
}

// readyHeap is a binary min-heap of ready entries.
type readyHeap []entry

func (h *readyHeap) push(e entry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = e
}

func (h *readyHeap) pop() entry {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = entry{}
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && s[r].before(&s[l]) {
			l = r
		}
		if !s[l].before(&last) {
			break
		}
		s[i] = s[l]
		i = l
	}
	s[i] = last
	return top
}

// draw returns the next tie-break: the enqueue count under seed 0, so
// entries due at one instant run first in, first out; otherwise
// splitmix64 over the seeded state, a seeded shuffle of them.
func (c *clock) draw() uint64 {
	if c.seed == 0 {
		c.rng++
		return c.rng
	}
	c.rng += 0x9e3779b97f4a7c15
	z := c.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Enable switches the process to virtual time starting at start
// nanoseconds, with ties at one instant broken by seed, and to one
// processor (GOMAXPROCS 1) until Disable. It must be called while no
// registered goroutines exist (see Quiesce).
func Enable(start int64, seed uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.live != 0 {
		panic(fmt.Sprintf("vclock: Enable with %d live goroutines", c.live))
	}
	c.active, c.now = true, start
	c.epoch++
	c.seed, c.rng = seed, seed
	c.spawned = 0
	c.cur = nil
	c.ready = c.ready[:0]
	c.outside = nil
	c.nowA.Store(start)
	c.activeA.Store(true)
	// One model goroutine runs at a time, so a second processor only
	// adds work to every hand-off (the runtime wakes an idle one to look
	// for the goroutine just readied, which is already next in line):
	// 7–15 % of the wall time of a quick Table 1 and 3 run on a 2-vCPU
	// Xeon.
	if c.procs == 0 {
		c.procs = runtime.GOMAXPROCS(1)
	}
}

// Disable returns the process to real time. Goroutines still queued on
// the clock are released to run as plain goroutines, so none hangs on a
// timer that will never fire.
func Disable() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.active = false
	c.activeA.Store(false)
	if c.procs > 0 {
		runtime.GOMAXPROCS(c.procs)
		c.procs = 0
	}
	for len(c.ready) > 0 {
		c.ready.pop().g.wake <- struct{}{}
	}
	for _, t := range c.outside {
		close(t.ch)
	}
	c.outside = nil
	c.cur = nil
	c.live = 0
	c.head = nil
}

// Active reports whether virtual time is in effect. It takes no lock.
func Active() bool { return c.activeA.Load() }

// Now returns the current virtual time in nanoseconds (the time the clock
// last stood at when disabled, 0 if it never ran). It takes no lock.
func Now() int64 { return c.nowA.Load() }

// setNow moves the clock forward to t. Caller holds c.mu.
func (c *clock) setNow(t int64) {
	if t > c.now {
		c.now = t
		c.nowA.Store(t)
	}
}

// dispatch hands the clock to the next ready entry, firing the outside
// timers due before it, and returns it (nil: the model is idle). Caller
// holds c.mu and nobody holds the clock.
func (c *clock) dispatch() *gor {
	for {
		next := int64(1<<63 - 1)
		if len(c.ready) > 0 {
			next = c.ready[0].when
		}
		// Outside sleepers wake once the model has nothing left to run
		// at the current instant and the clock reaches them.
		if len(c.outside) > 0 && next > c.now && c.outside[0].when <= next {
			c.setNow(c.outside[0].when)
			for len(c.outside) > 0 && c.outside[0].when <= c.now {
				close(c.outside[0].ch)
				c.outside = c.outside[1:]
			}
			c.woke = true
			continue
		}
		if len(c.ready) == 0 {
			return nil
		}
		e := c.ready.pop()
		c.setNow(e.when)
		g := e.g
		c.cur = g
		c.dispatches++
		// A goroutine parked in a Path: run its next steps here, as it
		// would have run them itself, and switch it in only once the
		// path is done. After firing outside timers the steps are left
		// to the goroutine, which runs them after the dispatcher's
		// yield, so the drivers woken at this instant move first.
		if pb := g.path; pb != nil && pb.pc < pb.n && !c.woke {
			done, waiting := c.advance(g, pb.steps[pb.pc:pb.n])
			pb.pc += done
			c.pathSteps += uint64(done)
			if waiting {
				c.cur = nil
				continue
			}
		}
		return g
	}
}

// nothingDueBy reports whether no ready entry and no outside timer is
// due by when: a sleep until then may keep the clock and jump. Caller
// holds c.mu.
func (c *clock) nothingDueBy(when int64) bool {
	return (len(c.ready) == 0 || c.ready[0].when > when) && (len(c.outside) == 0 || c.outside[0].when > when)
}

// enqueue makes g ready at when with a fresh tie-break. Caller holds
// c.mu.
func (c *clock) enqueue(g *gor, when int64) {
	c.ready.push(entry{when: when, tie: c.draw(), seq: g.seq, g: g})
}

// self returns the calling goroutine's entry when it holds the clock,
// nil when it is not a model goroutine. Caller holds c.mu.
func (c *clock) self() *gor {
	if g := c.cur; g != nil && g.id.Load() == getg() {
		return g
	}
	return nil
}

// park gives the clock away on behalf of g, which the caller has queued
// (on the ready heap or a primitive's waiter list), and blocks until g
// is dispatched again. Caller holds c.mu; park releases it.
func (c *clock) park(g *gor, what string) {
	g.what = what
	c.cur = nil
	next := c.dispatch()
	yield := c.yieldLocked()
	c.mu.Unlock()
	if yield {
		runtime.Gosched()
	}
	if next == g {
		return
	}
	handOff(next)
	<-g.wake
}

// yieldLocked reports, and clears, whether the last dispatch woke
// drivers. Caller holds c.mu.
func (c *clock) yieldLocked() bool {
	woke := c.woke
	c.woke = false
	return woke
}

// wakeUp makes a parked g ready at the current instant; under a
// disabled clock it releases g at once. It returns the goroutine the
// caller must hand the clock to after unlocking (when the model was
// idle), or nil. Caller holds c.mu.
func (c *clock) wakeUp(g *gor) *gor {
	if !c.active || g.epoch != c.epoch {
		g.wake <- struct{}{}
		return nil
	}
	c.enqueue(g, c.now)
	if c.cur == nil {
		return c.dispatch()
	}
	return nil
}

// handOff wakes the goroutine dispatch chose to run next, if any. Call
// it after releasing c.mu.
func handOff(g *gor) {
	if g != nil {
		c.switches.Add(1)
		g.wake <- struct{}{}
	}
}

// Go runs fn as a registered model goroutine. When the clock is disabled
// it is a plain goroutine. A model goroutine first runs when the
// goroutine holding the clock (if any) parks.
func Go(fn func()) {
	c.mu.Lock()
	if !c.active {
		c.mu.Unlock()
		go fn()
		return
	}
	c.spawned++
	g := &gor{wake: make(chan struct{}, 1), seq: c.spawned, epoch: c.epoch, fn: reflect.ValueOf(fn).Pointer()}
	c.live++
	g.lnext = c.head
	if c.head != nil {
		c.head.lprev = g
	}
	c.head = g
	c.enqueue(g, c.now)
	var next *gor
	if c.cur == nil {
		next = c.dispatch()
	}
	c.mu.Unlock()
	go func() {
		g.id.Store(getg())
		<-g.wake
		defer c.exit(g)
		fn()
	}()
	handOff(next)
}

// exit takes g out of the model and hands the clock on.
func (c *clock) exit(g *gor) {
	c.mu.Lock()
	if !c.active || g.epoch != c.epoch {
		c.mu.Unlock()
		return
	}
	c.live--
	if g.path != nil {
		c.spare = append(c.spare, g.path)
		g.path = nil
	}
	if g.lprev != nil {
		g.lprev.lnext = g.lnext
	} else {
		c.head = g.lnext
	}
	if g.lnext != nil {
		g.lnext.lprev = g.lprev
	}
	var next *gor
	if c.cur == g {
		c.cur = nil
		next = c.dispatch()
	}
	yield := c.yieldLocked()
	c.mu.Unlock()
	if yield {
		runtime.Gosched()
	}
	handOff(next)
}

// Sleep suspends the calling model goroutine for d of virtual time.
// It falls through immediately when the clock is disabled (the caller
// is expected to have handled real-time sleeping itself), and panics
// with ErrUnregistered when the caller is not a model goroutine.
func Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	if !c.active {
		c.mu.Unlock()
		return
	}
	g := c.self()
	if g == nil {
		c.mu.Unlock()
		panic(ErrUnregistered)
	}
	when := c.now + int64(d)
	// Nothing else is due by the deadline: keep the clock and jump.
	if c.nothingDueBy(when) {
		c.setNow(when)
		c.fastSleeps++
		c.mu.Unlock()
		return
	}
	c.enqueue(g, when)
	c.park(g, "Sleep")
}

// SleepOutside suspends an unregistered (driver) goroutine until the
// virtual clock reaches now+d. The driver is not part of the model: its
// timer fires once the model has nothing left to run before the
// deadline, and waking it hands nothing back to the model. The model
// goroutine that fires it yields the processor first, so the driver's
// next step runs at the instant it woke; the model goes on when the
// driver blocks again (or its time slice runs out).
func SleepOutside(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	if !c.active {
		c.mu.Unlock()
		return
	}
	if c.self() != nil {
		c.mu.Unlock()
		panic(ErrSleepOutsideInModel)
	}
	ch := make(chan struct{})
	t := outsideTimer{when: c.now + int64(d), ch: ch}
	i := sort.Search(len(c.outside), func(i int) bool { return c.outside[i].when > t.when })
	c.outside = append(c.outside, outsideTimer{})
	copy(c.outside[i+1:], c.outside[i:])
	c.outside[i] = t
	var next *gor
	if c.cur == nil {
		// The model may already be idle; nobody else would advance then.
		next = c.dispatch()
	}
	c.mu.Unlock()
	handOff(next)
	<-ch
}

// Seq returns the calling model goroutine's spawn sequence (the run
// queue's last tie-break, and its number in a Stall report), or 0 from a
// goroutine outside the model or with the clock off.
func Seq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g := c.self(); g != nil {
		return g.seq
	}
	return 0
}

// Quiesce waits until every registered goroutine has exited and returns
// nil. It returns a *Stall instead when the model stops short of that:
// at once when it is idle with goroutines still parked and nothing left
// that could wake them (no ready entry, no timer, no hand-off since the
// last look), or after timeout (real time) when it keeps running.
func Quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var idleAt uint64
	idleSeen := false
	for {
		c.mu.Lock()
		if c.live == 0 || !c.active {
			c.mu.Unlock()
			return nil
		}
		idle := c.cur == nil && len(c.ready) == 0 && len(c.outside) == 0
		if idle && idleSeen && c.dispatches == idleAt {
			s := c.stallLocked("idle with goroutines parked and nothing left to wake them")
			c.mu.Unlock()
			return s
		}
		idleSeen, idleAt = idle, c.dispatches
		if time.Now().After(deadline) {
			s := c.stallLocked(fmt.Sprintf("still running after %v", timeout))
			c.mu.Unlock()
			return s
		}
		c.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
}

// Stall reports a model that did not quiesce: why, at what virtual
// time, and every goroutine still in it.
type Stall struct {
	Reason     string
	Now        int64
	Goroutines []StalledGoroutine
}

// StalledGoroutine is one goroutine of a stalled model.
type StalledGoroutine struct {
	Seq   uint64 // spawn sequence
	State string // "running", "ready at <t>", or the primitive it is parked on
	Site  string // the function Go ran, with its file and line
}

func (s *Stall) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "vclock: model stalled at %v: %s; %d goroutines left:", time.Duration(s.Now), s.Reason, len(s.Goroutines))
	for _, g := range s.Goroutines {
		fmt.Fprintf(&b, "\n  #%d %s, spawned as %s", g.Seq, g.State, g.Site)
	}
	return b.String()
}

// stallLocked builds the report from the live list. Caller holds c.mu.
func (c *clock) stallLocked(reason string) *Stall {
	queued := make(map[*gor]int64, len(c.ready))
	for _, e := range c.ready {
		queued[e.g] = e.when
	}
	s := &Stall{Reason: reason, Now: c.now}
	for g := c.head; g != nil; g = g.lnext {
		state := "parked in " + g.what
		when, ready := queued[g]
		switch {
		case g == c.cur:
			state = "running (holding the clock; blocked outside it?)"
		case ready && g.what == "":
			state = fmt.Sprintf("ready at %v, not yet started", time.Duration(when))
		case ready:
			state = fmt.Sprintf("ready at %v after %s", time.Duration(when), g.what)
		}
		site := "unknown"
		if f := runtime.FuncForPC(g.fn); f != nil {
			file, line := f.FileLine(g.fn)
			site = fmt.Sprintf("%s (%s:%d)", f.Name(), file, line)
		}
		s.Goroutines = append(s.Goroutines, StalledGoroutine{Seq: g.seq, State: state, Site: site})
	}
	sort.Slice(s.Goroutines, func(i, j int) bool { return s.Goroutines[i].Seq < s.Goroutines[j].Seq })
	return s
}

// Stats reports the clock's bookkeeping (for tests and diagnostics):
// the virtual time, the goroutines that can run at it (the one holding
// the clock and those ready now), the live goroutines, and the pending
// timers (ready entries due later and outside sleepers).
func Stats() (now int64, running, live, timers int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur != nil {
		running++
	}
	for _, e := range c.ready {
		if e.when <= c.now {
			running++
		} else {
			timers++
		}
	}
	return c.now, running, c.live, timers + len(c.outside)
}

// Counts are the clock's work counters, summed over every Enable since
// the process started.
type Counts struct {
	// Switches counts hand-offs to a parked model goroutine: each one
	// is a goroutine switch through Go's scheduler.
	Switches uint64
	// PathSteps counts the Path steps the clock ran in a hand-off, each
	// one a step the goroutine did not have to be switched in for.
	PathSteps uint64
	// FastSleeps counts sleeps — Sleep and Path sleeps — that kept the
	// clock because nothing else was due by their deadline.
	FastSleeps uint64
}

// Counters reports the clock's work counters (for diagnostics and
// tests; take differences across a run).
func Counters() Counts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Counts{Switches: c.switches.Load(), PathSteps: c.pathSteps, FastSleeps: c.fastSleeps}
}
