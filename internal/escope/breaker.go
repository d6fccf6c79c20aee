// Straggler circuit breakers and the degradation-mode ladder. Health
// guards (health.go) handle children that *fail*; a child that merely
// answers slowly never faults, so a single straggler host stalls every
// gather round — the monitor's accuracy silently dies with its latency.
// A breaker wraps each guarded child with a per-round deadline: a call
// that overruns is abandoned (it keeps running in the background and its
// late result is delivered as *stale* data on a later round), and a
// child that overruns repeatedly trips the breaker open — rounds skip it
// entirely, coasting on its last data while that data is younger than
// the configured staleness bound. Guard transitions drive the breaker
// too: a child declared dead opens its breaker immediately, and a
// recovery closes it.
//
// The breaker is active only in the bounded-staleness and summary-only
// rungs of a scope's mode ladder (ModeStrict leaves gathers untouched,
// exactly the paper's behaviour); Scope.SetMode moves the rung.
package escope

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"eventspace/internal/hrtime"
	"eventspace/internal/metrics"
	"eventspace/internal/paths"
	"eventspace/internal/vclock"
)

// Mode is a rung of a scope's degradation ladder.
type Mode int32

const (
	// ModeStrict is full-fidelity monitoring: every gather round waits
	// for every child, however slow (the paper's behaviour).
	ModeStrict Mode = iota
	// ModeBounded is bounded-staleness monitoring: rounds are bounded by
	// the breaker deadline, slow children are skipped and served stale
	// within the policy's staleness bound.
	ModeBounded
	// ModeSummary is summary-only monitoring: bounded-staleness gathers
	// plus payload shedding at the monitor's ingest queue — only
	// aggregate counts survive. The cheapest rung; the monitor stays
	// alive under overload it could not otherwise absorb.
	ModeSummary
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeStrict:
		return "strict"
	case ModeBounded:
		return "bounded-staleness"
	case ModeSummary:
		return "summary-only"
	}
	return fmt.Sprintf("Mode(%d)", int32(m))
}

// BreakerPolicy configures the per-child straggler circuit breakers of a
// scope. It only takes effect together with a HealthPolicy (breakers
// build on guards) and outside ModeStrict.
type BreakerPolicy struct {
	// RoundDeadline bounds each guarded child call per gather round; a
	// call still running at the deadline is abandoned (delivered stale
	// later) and counts as an overrun. 0 means 1ms.
	RoundDeadline time.Duration
	// TripAfter is the number of consecutive overruns that trips the
	// breaker open. 0 means 2.
	TripAfter int
	// ReopenBase is the wait before an open breaker's first half-open
	// trial; each failed trial doubles it. 0 means 2ms.
	ReopenBase time.Duration
	// ReopenMax caps the reopen wait. 0 means 50ms.
	ReopenMax time.Duration
	// StalenessBound is how old a skipped child's last delivered data may
	// grow before the breaker forces a trial regardless of the reopen
	// backoff — the bound Coverage reports against. 0 means 20ms.
	StalenessBound time.Duration
}

func (p *BreakerPolicy) roundDeadline() time.Duration {
	if p.RoundDeadline > 0 {
		return p.RoundDeadline
	}
	return time.Millisecond
}

func (p *BreakerPolicy) tripAfter() int {
	if p.TripAfter > 0 {
		return p.TripAfter
	}
	return 2
}

func (p *BreakerPolicy) reopenBase() time.Duration {
	if p.ReopenBase > 0 {
		return p.ReopenBase
	}
	return 2 * time.Millisecond
}

func (p *BreakerPolicy) reopenMax() time.Duration {
	if p.ReopenMax > 0 {
		return p.ReopenMax
	}
	return 50 * time.Millisecond
}

func (p *BreakerPolicy) stalenessBound() time.Duration {
	if p.StalenessBound > 0 {
		return p.StalenessBound
	}
	return 20 * time.Millisecond
}

// BreakerState is a circuit breaker's state.
type BreakerState int

const (
	// BreakerClosed: calls flow normally (deadline-bounded).
	BreakerClosed BreakerState = iota
	// BreakerOpen: the child is skipped; rounds coast on its stale data.
	BreakerOpen
	// BreakerHalfOpen: one trial call is probing whether the child
	// recovered.
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int(s))
}

// BreakerHealth is a point-in-time snapshot of one child's breaker.
type BreakerHealth struct {
	Name          string // breaker's wrapper name
	Target        string // host (or gateway) the guarded link leads to
	State         BreakerState
	Overruns      int          // consecutive deadline overruns
	LastData      hrtime.Stamp // stamp of the last data delivered (fresh or stale)
	HasData       bool         // whether any data was ever delivered
	Pending       bool         // an abandoned call is still running
	NextTrial     hrtime.Stamp
	TotalOverruns uint64
	Trips         uint64 // times the breaker opened
	Skips         uint64 // rounds that skipped the child entirely
	Stale         uint64 // late results delivered as stale data
}

// errRoundDeadline is the timer goroutine's losing fire; it never
// escapes the breaker.
var errRoundDeadline = errors.New("escope: gather round deadline")

// inflight is one deadline-raced child call. The call goroutine stores
// its result and fires the event; the timer goroutine fires the same
// event at the deadline (first fire wins, so the caller wakes at
// whichever comes sooner and checks done to tell them apart).
type inflight struct {
	ev *vclock.Event

	mu   sync.Mutex
	done bool
	rep  paths.Reply
	err  error
	at   hrtime.Stamp // completion stamp
}

func (fl *inflight) result() (rep paths.Reply, err error, at hrtime.Stamp, done bool) {
	fl.mu.Lock()
	rep, err, at, done = fl.rep, fl.err, fl.at, fl.done
	fl.mu.Unlock()
	return
}

// breaker wraps a guarded child with the per-round deadline and the
// closed → open → half-open circuit. It implements paths.Wrapper and is
// inert (pure pass-through) while its scope is in ModeStrict.
type breaker struct {
	name   string
	target string
	child  paths.Wrapper // the health guard
	pol    *BreakerPolicy
	mode   *atomic.Int32 // the owning scope's mode

	// seed/step drive the deterministic reopen-wait jitter, mirroring
	// the guards' probe jitter.
	seed uint64

	mu          sync.Mutex
	state       BreakerState
	overruns    int // consecutive
	reopenWait  time.Duration
	nextTrial   hrtime.Stamp
	step        uint64
	pending     *inflight
	lastData    hrtime.Stamp
	hasData     bool
	trips       uint64
	totOverruns uint64

	skips  atomic.Uint64
	stales atomic.Uint64

	// Optional self-metrics (nil-safe).
	op        *metrics.Op
	mTrips    *metrics.Counter
	mOverruns *metrics.Counter
	mSkips    *metrics.Counter
	mStales   *metrics.Counter
}

func newBreaker(name, target string, child paths.Wrapper, pol *BreakerPolicy, mode *atomic.Int32) *breaker {
	return &breaker{
		name:   name,
		target: target,
		child:  child,
		pol:    pol,
		mode:   mode,
		seed:   hashName(name),
	}
}

func (b *breaker) Name() string { return b.name }

// Op runs one gather round's visit of the child. In ModeStrict it
// forwards untouched. Otherwise: a late result from a previously
// abandoned call is delivered as stale data; an open breaker skips the
// child (while its data is within the staleness bound and a trial is not
// due); an admitted call races the round deadline.
func (b *breaker) Op(ctx *paths.Ctx, req paths.Request) (paths.Reply, error) {
	if Mode(b.mode.Load()) == ModeStrict {
		return b.child.Op(ctx, req)
	}
	now := hrtime.Now()
	if rep, handled := b.consumePending(now); handled {
		return rep, nil
	}
	if !b.admit(now) {
		b.skips.Add(1)
		b.mSkips.Inc()
		return paths.Reply{}, nil
	}
	start := hrtime.Now()
	rep, err, timedOut := b.timedCall(ctx, req)
	b.op.Record(hrtime.Since(start), len(rep.Data), err)
	if timedOut {
		b.noteOverrun(now)
		return paths.Reply{}, nil
	}
	// The child answered within the deadline: the circuit is healthy,
	// whatever the answer was (transport faults were already absorbed by
	// the guard underneath; a residual error is an application error and
	// passes through).
	b.noteSuccess(hrtime.Now(), len(rep.Data))
	return rep, err
}

// consumePending checks the abandoned call from an earlier round. A call
// still running counts as another overrun and the round skips the child;
// a completed call with data is delivered (stale); a completed empty or
// failed call is discarded and the round proceeds normally.
//
//lint:hotpath tripped-breaker skip path; must not allocate while coasting on stale data
func (b *breaker) consumePending(now hrtime.Stamp) (paths.Reply, bool) {
	b.mu.Lock()
	fl := b.pending
	if fl == nil {
		b.mu.Unlock()
		return paths.Reply{}, false
	}
	rep, err, at, done := fl.result()
	if !done {
		// Still outstanding: only one call may be in flight per child,
		// so this round skips it — and the continued silence is another
		// overrun against the trip threshold.
		b.overrunLocked(now)
		b.mu.Unlock()
		b.skips.Add(1)
		b.mSkips.Inc()
		return paths.Reply{}, true
	}
	b.pending = nil
	if err == nil && len(rep.Data) > 0 {
		b.lastData = at
		b.hasData = true
		b.mu.Unlock()
		b.stales.Add(1)
		b.mStales.Inc()
		return rep, true
	}
	b.mu.Unlock()
	return paths.Reply{}, false
}

// admit decides whether this round's call reaches the child. Caller does
// NOT hold b.mu. The skip path is allocation-free — it is the breaker
// decision hot path.
//
//lint:hotpath breaker skip decision runs once per child per round
func (b *breaker) admit(now hrtime.Stamp) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != BreakerOpen {
		return true
	}
	// Open: coast on stale data while it is within the bound and the
	// reopen backoff has not elapsed; data older than the bound forces a
	// trial immediately — staleness stays bounded by construction.
	withinBound := b.hasData && now-b.lastData <= hrtime.Stamp(b.pol.stalenessBound())
	if withinBound && now < b.nextTrial {
		return false
	}
	b.state = BreakerHalfOpen
	return true
}

// timedCall races the child call against the round deadline. On timeout
// the call keeps running in the background and is parked as pending — so
// it may not be handed the caller's window: by the time it writes its
// payload the parent has long handed that buffer out as a reply.
func (b *breaker) timedCall(ctx *paths.Ctx, req paths.Request) (paths.Reply, error, bool) {
	fl := &inflight{ev: vclock.NewEvent()}
	child := b.child
	bgCtx := &paths.Ctx{Thread: ctx.Thread}
	req.Window = nil
	vclock.Go(func() {
		rep, err := child.Op(bgCtx, req)
		fl.mu.Lock()
		fl.rep, fl.err, fl.at, fl.done = rep, err, hrtime.Now(), true
		fl.mu.Unlock()
		fl.ev.Fire(nil, nil)
	})
	deadline := b.pol.roundDeadline()
	vclock.Go(func() {
		hrtime.Sleep(deadline)
		fl.ev.Fire(nil, errRoundDeadline)
	})
	_, _ = fl.ev.Wait()
	rep, err, _, done := fl.result()
	if done {
		return rep, err, false
	}
	b.mu.Lock()
	b.pending = fl
	b.mu.Unlock()
	return paths.Reply{}, nil, true
}

// overrunLocked records one consecutive overrun and trips the breaker
// when warranted. Caller holds b.mu.
func (b *breaker) overrunLocked(now hrtime.Stamp) {
	b.overruns++
	b.totOverruns++
	b.mOverruns.Inc()
	trip := false
	switch b.state {
	case BreakerHalfOpen:
		trip = true // a failed trial reopens immediately
	case BreakerClosed:
		trip = b.overruns >= b.pol.tripAfter()
	}
	if trip {
		b.tripLocked(now)
	}
}

// tripLocked opens the breaker and schedules the next half-open trial
// with doubling, deterministically jittered backoff. Caller holds b.mu.
func (b *breaker) tripLocked(now hrtime.Stamp) {
	b.state = BreakerOpen
	if b.reopenWait <= 0 {
		b.reopenWait = b.pol.reopenBase()
	} else if next := b.reopenWait * 2; next <= b.pol.reopenMax() {
		b.reopenWait = next
	} else {
		b.reopenWait = b.pol.reopenMax()
	}
	b.step++
	b.nextTrial = now + hrtime.Stamp(paths.Jitter(b.seed, b.step, b.reopenWait))
	b.trips++
	b.mTrips.Inc()
}

func (b *breaker) noteOverrun(now hrtime.Stamp) {
	b.mu.Lock()
	b.overrunLocked(now)
	b.mu.Unlock()
}

func (b *breaker) noteSuccess(now hrtime.Stamp, ndata int) {
	b.mu.Lock()
	b.state = BreakerClosed
	b.overruns = 0
	b.reopenWait = 0
	if ndata > 0 {
		b.lastData = now
		b.hasData = true
	}
	b.mu.Unlock()
}

// onGuardTransition couples the breaker to the health state machine
// underneath it: a child declared dead opens the breaker without waiting
// for deadline overruns, and a recovery closes it. Runs outside the
// guard's lock (guard.fire) and takes only b.mu.
func (b *breaker) onGuardTransition(tr Transition) {
	switch tr.To {
	case Dead:
		b.mu.Lock()
		if b.state != BreakerOpen {
			b.tripLocked(tr.At)
		}
		b.mu.Unlock()
	case Alive:
		b.mu.Lock()
		b.state = BreakerClosed
		b.overruns = 0
		b.reopenWait = 0
		b.mu.Unlock()
	}
}

func (b *breaker) snapshot() BreakerHealth {
	b.mu.Lock()
	h := BreakerHealth{
		Name:          b.name,
		Target:        b.target,
		State:         b.state,
		Overruns:      b.overruns,
		LastData:      b.lastData,
		HasData:       b.hasData,
		Pending:       b.pending != nil,
		NextTrial:     b.nextTrial,
		TotalOverruns: b.totOverruns,
		Trips:         b.trips,
	}
	b.mu.Unlock()
	h.Skips = b.skips.Load()
	h.Stale = b.stales.Load()
	return h
}

var _ paths.Wrapper = (*breaker)(nil)
