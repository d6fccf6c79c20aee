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
// parking hands the clock straight to the next ready entry through that
// goroutine's own park slot. Ready entries are ordered by (deadline,
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
// mean a model goroutine started without Go. A driver's SleepOutside is
// itself a model goroutine — a timer due first at its instant — so the
// clock has one kind of waiter. With the clock disabled every primitive
// behaves like its sync counterpart.
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
	live    int
	head    *gor // live list
	procs   int  // GOMAXPROCS before Enable, put back by Disable
	// dispatches counts hand-offs, so Quiesce can tell an idle model
	// from one that is still moving.
	dispatches uint64

	spare []*pathBuf // path buffers of exited goroutines, for reuse

	// Counters (see Counters): fast-path sleeps and the path steps
	// dispatch ran under mu, switches lock-free as handOff counts them.
	fastSleeps uint64
	pathSteps  uint64
	switches   atomic.Uint64

	// Lock-free mirrors of active and now for Active and Now, which every
	// timestamp calls: written under mu wherever the locked fields change,
	// read without it. The time's mirror is stored before the goroutine
	// due at it is let go, so a goroutine back from a sleep never reads a
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

// dispatch hands the clock to the next ready entry and returns it (nil:
// the model is idle). A goroutine parked in a Path has its next steps
// run here, as it would have run them itself, and is switched in only
// once the path is done. Caller holds c.mu and nobody holds the clock.
func (c *clock) dispatch() *gor {
	for len(c.ready) > 0 {
		e := c.ready.pop()
		c.setNow(e.when)
		g := e.g
		c.cur = g
		c.dispatches++
		if pb := g.path; pb != nil && pb.pc < pb.n {
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
	return nil
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
	c.mu.Unlock()
	if next == g {
		return
	}
	handOff(next)
	<-g.wake
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
	c.spawn(fn, entry{when: c.now, tie: c.draw(), seq: c.spawned}, "")
}

// spawn registers fn as a model goroutine, ready as e says (spawn fills
// in its goroutine), with what as the stall report's name for it until
// it first parks, and starts it. Caller holds c.mu with the clock on;
// spawn releases it.
func (c *clock) spawn(fn func(), e entry, what string) {
	g := &gor{wake: make(chan struct{}, 1), seq: e.seq, epoch: c.epoch, what: what, fn: reflect.ValueOf(fn).Pointer()}
	c.live++
	g.lnext = c.head
	if c.head != nil {
		c.head.lprev = g
	}
	c.head = g
	e.g = g
	c.ready.push(e)
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
	c.mu.Unlock()
	handOff(next)
}

// Sleep suspends the calling model goroutine for d of virtual time, a
// one-step run of the Path executor. It falls through at once when the
// clock is disabled, and panics with ErrUnregistered when the caller is
// not a model goroutine.
func Sleep(d time.Duration) {
	if d > 0 && c.activeA.Load() {
		steps := [1]step{{op: opSleep, d: int64(d)}}
		run(steps[:], "Sleep")
	}
}

// timerWhat names a SleepOutside timer in a Stall report.
const timerWhat = "SleepOutside"

// SleepOutside suspends the caller until the virtual clock reaches
// now+d. A driver's wait is a timer: a model goroutine ready at now+d
// with tie-break 0, so it runs first at its instant, and spawn sequence
// 0, the driver's, so waiting drivers draw nothing from the seed and
// renumber none of the model's goroutines. The timer wakes the driver
// and holds the clock until the driver is back on the processor: the
// driver's next step runs at the timer's instant, before any other
// entry due then, and the model goes on when the driver blocks again.
// (A yield would not do: Go's scheduler runs the yielder again first
// about one time in 61.) From a model goroutine SleepOutside is Sleep.
func SleepOutside(d time.Duration) {
	if d <= 0 || !c.activeA.Load() {
		return
	}
	c.mu.Lock()
	if !c.active || c.self() != nil {
		c.mu.Unlock()
		Sleep(d)
		return
	}
	wake, back := make(chan struct{}), make(chan struct{})
	c.spawn(func() {
		close(wake)
		<-back
	}, entry{when: c.now + int64(d)}, timerWhat)
	<-wake
	close(back)
}

// Seq returns the calling model goroutine's spawn sequence (the run
// queue's last tie-break, and its number in a Stall report), or 0 from a
// goroutine outside the model (a SleepOutside timer included) or with
// the clock off.
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
		idle := c.cur == nil && len(c.ready) == 0
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
		case ready && g.what == timerWhat:
			state = fmt.Sprintf("%s, due at %v", timerWhat, time.Duration(when))
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
// timers (ready entries due later, SleepOutside timers among them).
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
	return c.now, running, c.live, timers
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
