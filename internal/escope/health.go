// Per-child health tracking for event-scope gathers. A guard wraps each
// remote child of a gather with an alive → suspect → dead state machine:
// transport faults are absorbed (the gather keeps going with partial
// data) and counted; after enough consecutive faults the child is
// declared dead and skipped, with probe attempts at exponentially
// backed-off intervals so the child rejoins automatically once its host
// heals. Source cursors live on the source hosts and persist across
// outages, so a healed child's first successful pull resumes exactly
// where gathering stopped — the coverage gap closes without losing the
// retained window.
package escope

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"eventspace/internal/hrtime"
	"eventspace/internal/paths"
)

// ChildState is a guarded child's health state.
type ChildState int

const (
	// Alive: the last operation succeeded.
	Alive ChildState = iota
	// Suspect: recent transport faults, but not enough to declare the
	// child dead; every pull still attempts it.
	Suspect
	// Dead: consecutive transport faults reached the policy threshold;
	// the child is skipped except for backed-off probe attempts.
	Dead
)

func (s ChildState) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	}
	return fmt.Sprintf("ChildState(%d)", int(s))
}

// GuardRole says where in the scope tree a guarded link sits — the
// repair planner treats a dead cluster uplink very differently from a
// dead leaf host.
type GuardRole int

const (
	// RoleLeaf guards a gateway -> compute-host link inside a cluster.
	RoleLeaf GuardRole = iota
	// RoleUplink guards the front-end -> cluster-gateway link; its death
	// orphans the whole cluster.
	RoleUplink
	// RoleDirect guards a front-end -> standalone-host link.
	RoleDirect
)

func (r GuardRole) String() string {
	switch r {
	case RoleLeaf:
		return "leaf"
	case RoleUplink:
		return "uplink"
	case RoleDirect:
		return "direct"
	}
	return fmt.Sprintf("GuardRole(%d)", int(r))
}

// Transition is one guard state change, delivered to the scope's
// transition hook (SetTransitionHook). Stamps are modelled time, so a
// chaos run under the virtual clock emits a deterministic transition
// sequence.
type Transition struct {
	Guard   string // guard name
	Target  string // host (or gateway) the guarded link leads to
	Role    GuardRole
	Cluster string // cluster the link belongs to ("" for direct links)
	From    ChildState
	To      ChildState
	At      hrtime.Stamp
}

// HealthPolicy configures per-child health tracking in a scope.
type HealthPolicy struct {
	// DeadAfter is the number of consecutive transport faults that moves
	// a child from suspect to dead. 0 means 3.
	DeadAfter int
	// ProbeBase is the wait before the first probe of a dead child; each
	// failed probe doubles it. 0 means 2ms.
	ProbeBase time.Duration
	// ProbeMax caps the probe interval. 0 means 50ms.
	ProbeMax time.Duration
}

func (p *HealthPolicy) deadAfter() int {
	if p.DeadAfter > 0 {
		return p.DeadAfter
	}
	return 3
}

func (p *HealthPolicy) probeBase() time.Duration {
	if p.ProbeBase > 0 {
		return p.ProbeBase
	}
	return 2 * time.Millisecond
}

func (p *HealthPolicy) probeMax() time.Duration {
	if p.ProbeMax > 0 {
		return p.ProbeMax
	}
	return 50 * time.Millisecond
}

// ChildHealth is a point-in-time snapshot of one guarded child.
type ChildHealth struct {
	Name       string // guarded child's wrapper name
	Target     string // host (or gateway) the child leads to
	Role       GuardRole
	Cluster    string // cluster the guarded link belongs to ("" for direct)
	State      ChildState
	Fails      int          // consecutive transport faults
	LastOK     hrtime.Stamp // last successful operation
	NextProbe  hrtime.Stamp // next scheduled probe while dead (jittered)
	Proven     bool         // at least one operation ever succeeded
	Skips      uint64       // operations skipped while dead
	Faults     uint64       // total transport faults absorbed
	Recoveries uint64       // dead -> alive transitions
}

// guard wraps a remote child wrapper with health tracking. It implements
// paths.Wrapper; on transport faults it returns an empty reply instead
// of an error so the enclosing gather proceeds with partial coverage.
// Application errors pass through untouched.
type guard struct {
	name    string
	target  string
	role    GuardRole
	cluster string
	child   paths.Wrapper
	policy  *HealthPolicy

	// jitterSeed de-correlates this guard's probe schedule from its
	// siblings': a whole cluster dying at once must not produce a
	// synchronized probe storm. probeStep advances per scheduled probe
	// so consecutive waits draw fresh jitter.
	jitterSeed uint64
	probeStep  uint64

	// notify, when set, receives every state transition (after the
	// guard's own lock is released). The scope installs its dispatcher
	// here at build time.
	notify func(Transition)

	// br is the straggler circuit breaker wrapping this guard, when the
	// scope has a BreakerPolicy; Coverage consults it to classify the
	// guarded host as stale or skipped.
	br *breaker

	mu        sync.Mutex
	state     ChildState
	fails     int
	probeWait time.Duration
	nextProbe hrtime.Stamp
	lastOK    hrtime.Stamp
	proven    bool // true once the child has succeeded at least once

	skips atomic.Uint64
	// The counts the scope's registry reads, allocated apart from the
	// guard so the registry keeps only them alive.
	faults, deaths, recoveries *atomic.Uint64
}

func newGuard(name, target string, child paths.Wrapper, policy *HealthPolicy) *guard {
	return &guard{
		name:       name,
		target:     target,
		child:      child,
		policy:     policy,
		jitterSeed: hashName(name),
		lastOK:     hrtime.Now(),
		faults:     new(atomic.Uint64),
		deaths:     new(atomic.Uint64),
		recoveries: new(atomic.Uint64),
	}
}

// transition builds the event for a state change; caller holds g.mu.
func (g *guard) transitionLocked(from, to ChildState) Transition {
	return Transition{
		Guard:   g.name,
		Target:  g.target,
		Role:    g.role,
		Cluster: g.cluster,
		From:    from,
		To:      to,
		At:      hrtime.Now(),
	}
}

// fire delivers a transition to the scope's dispatcher, outside g.mu.
func (g *guard) fire(tr Transition, changed bool) {
	if changed && g.notify != nil {
		g.notify(tr)
	}
}

func (g *guard) Name() string { return g.name }

// shouldAttempt decides whether this operation reaches the child: always
// while alive or suspect, only at probe times while dead.
func (g *guard) shouldAttempt() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.state != Dead {
		return true
	}
	now := hrtime.Now()
	if now < g.nextProbe {
		return false
	}
	// Claim this probe slot; concurrent pulls skip until it resolves.
	g.nextProbe = now + hrtime.Stamp(g.jitteredWaitLocked())
	return true
}

func (g *guard) probeWaitLocked() time.Duration {
	if g.probeWait <= 0 {
		g.probeWait = g.policy.probeBase()
	}
	return g.probeWait
}

// jitteredWaitLocked draws the next probe wait: the current backoff wait
// scaled by a deterministic per-guard jitter factor in [0.5, 1.0), a
// fresh draw per probe. Caller holds g.mu.
func (g *guard) jitteredWaitLocked() time.Duration {
	g.probeStep++
	return paths.Jitter(g.jitterSeed, g.probeStep, g.probeWaitLocked())
}

func (g *guard) noteSuccess() {
	g.mu.Lock()
	from := g.state
	recovered := from == Dead
	g.state = Alive
	g.fails = 0
	g.probeWait = 0
	g.lastOK = hrtime.Now()
	g.proven = true
	tr := g.transitionLocked(from, Alive)
	g.mu.Unlock()
	if recovered {
		g.recoveries.Add(1)
	}
	g.fire(tr, from != Alive)
}

func (g *guard) noteFault() {
	g.faults.Add(1)
	g.mu.Lock()
	from := g.state
	g.fails++
	if g.fails >= g.policy.deadAfter() {
		if g.state != Dead {
			g.deaths.Add(1)
		}
		g.state = Dead
		g.nextProbe = hrtime.Now() + hrtime.Stamp(g.jitteredWaitLocked())
		if next := g.probeWait * 2; next <= g.policy.probeMax() {
			g.probeWait = next
		} else {
			g.probeWait = g.policy.probeMax()
		}
	} else {
		g.state = Suspect
	}
	to := g.state
	tr := g.transitionLocked(from, to)
	g.mu.Unlock()
	g.fire(tr, from != to)
}

// Op forwards to the child unless it is dead and not due for a probe.
// Transport faults yield an empty reply (partial coverage); application
// errors propagate.
func (g *guard) Op(ctx *paths.Ctx, req paths.Request) (paths.Reply, error) {
	if !g.shouldAttempt() {
		g.skips.Add(1)
		return paths.Reply{}, nil
	}
	rep, err := g.child.Op(ctx, req)
	if err == nil {
		g.noteSuccess()
		return rep, nil
	}
	if paths.Retryable(err) {
		g.noteFault()
		return paths.Reply{}, nil
	}
	return paths.Reply{}, err
}

func (g *guard) snapshot() ChildHealth {
	g.mu.Lock()
	h := ChildHealth{
		Name:      g.name,
		Target:    g.target,
		Role:      g.role,
		Cluster:   g.cluster,
		State:     g.state,
		Fails:     g.fails,
		LastOK:    g.lastOK,
		NextProbe: g.nextProbe,
		Proven:    g.proven,
	}
	g.mu.Unlock()
	h.Skips = g.skips.Load()
	h.Faults = g.faults.Load()
	h.Recoveries = g.recoveries.Load()
	return h
}

var _ paths.Wrapper = (*guard)(nil)

// Coverage reports which source hosts a scope is currently hearing from.
type Coverage struct {
	// Expected is the number of distinct source hosts in the scope.
	Expected int
	// Reporting is how many of them have no dead guard on their gather
	// path.
	Reporting int
	// Recovered is how many reporting hosts were cut off at some point
	// in the scope's life (a guard on their path died, or they were
	// repaired onto a new parent) and are reporting again.
	Recovered int
	// Missing names the hosts currently cut off, sorted.
	Missing []string
	// LastHeard maps each source host to the stamp of the last
	// successful gather over its path (hosts whose path was never proven
	// are absent). For a host behind a gateway this is the older of the
	// uplink and leaf link successes — the bottleneck of its path.
	LastHeard map[string]hrtime.Stamp
	// Staleness is the age of the oldest last-successful gather over all
	// guarded paths (zero when the scope has no guards).
	Staleness time.Duration
	// Stale names the hosts currently behind a non-closed circuit
	// breaker whose last delivered data is still within the breaker
	// policy's staleness bound: rounds skip them but the monitor is
	// coasting on data no older than the bound. Sorted.
	Stale []string
	// Skipped names the hosts currently behind an open or half-open
	// breaker with no data within the bound — a coverage gap beyond the
	// staleness contract (like Missing, but driven by slowness rather
	// than death). Sorted.
	Skipped []string
	// Bound is the breaker policy's staleness bound (zero without
	// breakers), for reporting alongside Stale.
	Bound time.Duration
}

// Complete reports full coverage.
func (c Coverage) Complete() bool { return c.Reporting == c.Expected }
