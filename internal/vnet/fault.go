// Fault injection. A FaultPlan describes failures scheduled in virtual
// time — host crashes and restarts, cluster partitions and heals,
// connection resets — plus probabilistic per-message faults (drops and
// latency spikes) drawn from a seeded counter-based hash so the injected
// fault sequence is reproducible regardless of goroutine interleaving.
//
// Faults surface to callers through the same error paths a real
// deployment would see: a crashed host resets its connections
// (ErrConnClosed), calls to a down host fail fast with ErrHostDown after
// the connect latency, and partitioned or dropped traffic blackholes
// until the call timeout elapses (ErrTimeout). The robustness machinery
// in paths/escope/monitor is built against exactly these errors.
package vnet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"eventspace/internal/hrtime"
	"eventspace/internal/vclock"
)

// ErrTimeout is returned by Call when a message (or its reply) is lost —
// dropped by a fault rule or blackholed by a partition — and the call
// timeout elapses.
var ErrTimeout = errors.New("vnet: call timed out")

// ErrHostDown is returned by Call when the destination host is crashed:
// the connection attempt is refused quickly rather than timing out.
var ErrHostDown = errors.New("vnet: host down")

// FaultKind enumerates scheduled fault events.
type FaultKind int

const (
	// FaultCrash marks the named host down and resets every connection
	// touching it. Calls to the host fail with ErrHostDown until a
	// matching FaultRestart.
	FaultCrash FaultKind = iota
	// FaultRestart brings a crashed host back. Its PastSet state is
	// intact (the paper's hosts persist nothing; our model keeps the
	// registry so cursors resume where they left off).
	FaultRestart
	// FaultPartition cuts the named cluster off from the rest of the
	// network: calls crossing the cluster boundary time out. Intra-cluster
	// traffic is unaffected.
	FaultPartition
	// FaultHeal removes a partition.
	FaultHeal
	// FaultReset closes every connection touching the named host (or any
	// host of the named cluster) without marking anything down — an
	// in-flight and queued calls fail with ErrConnClosed, and redialling
	// succeeds immediately.
	FaultReset
	// FaultSlow turns the named host (or every host of the named cluster)
	// into a straggler: the service time of every message the host serves
	// is inflated by the event's Factor. The host stays up and calls still
	// succeed — they just take Factor times the modelled communication
	// work, with a seeded per-message jitter, so gathers stall instead of
	// failing. The deterministic delay sequence is exposed by
	// FaultPlan.SlowSequence.
	FaultSlow
	// FaultFast clears a FaultSlow on the named host or cluster.
	FaultFast
)

func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultRestart:
		return "restart"
	case FaultPartition:
		return "partition"
	case FaultHeal:
		return "heal"
	case FaultReset:
		return "reset"
	case FaultSlow:
		return "slow"
	case FaultFast:
		return "fast"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultEvent is one scheduled fault.
type FaultEvent struct {
	// At is the virtual-time offset from injector start at which the
	// event fires.
	At   time.Duration
	Kind FaultKind
	// Host names the target host (crash, restart, reset, slow, fast).
	Host string
	// Cluster names the target cluster (partition, heal, reset, slow,
	// fast).
	Cluster string
	// Factor is the service-time multiplier of a FaultSlow event (> 1
	// slows the host down; values at or below 1 clear the slowdown, like
	// FaultFast). Ignored by every other kind.
	Factor float64
}

// FaultRule injects probabilistic per-message faults on matching traffic.
// A message matches when either endpoint's host or cluster name equals
// the (non-empty) selector; an empty selector matches everything. The
// first matching rule applies.
type FaultRule struct {
	Host    string // match on either endpoint host name; "" = any
	Cluster string // match on either endpoint cluster name; "" = any
	// DropProb is the probability a message leg (request or reply) is
	// silently lost; the caller observes ErrTimeout.
	DropProb float64
	// SpikeProb is the probability a message leg is delayed by an extra
	// SpikeDelay (a latency spike, not a loss).
	SpikeProb  float64
	SpikeDelay time.Duration
}

func (r FaultRule) matches(a, b *Host) bool {
	match1 := func(h *Host) bool {
		if r.Host != "" && h.name != r.Host {
			return false
		}
		if r.Cluster != "" && (h.cluster == nil || h.cluster.name != r.Cluster) {
			return false
		}
		return true
	}
	return match1(a) || match1(b)
}

// FaultPlan is a reproducible fault schedule: deterministic events in
// virtual time plus seeded probabilistic rules.
type FaultPlan struct {
	// Seed drives every probabilistic decision. The same seed, plan and
	// per-connection-pair message sequence yield the same faults.
	Seed uint64
	// CallTimeout is how long a caller waits on lost traffic before
	// giving up with ErrTimeout. Zero defaults to 2ms.
	CallTimeout time.Duration
	Events      []FaultEvent
	Rules       []FaultRule
}

func (p FaultPlan) timeout() time.Duration {
	if p.CallTimeout > 0 {
		return p.CallTimeout
	}
	return 2 * time.Millisecond
}

// splitmix64 is the standard 64-bit mix; a full-period counter hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hashString(s string) uint64 {
	var h uint64 = 14695981039346656037 // FNV-64 offset basis
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// decide returns a deterministic pseudo-random draw in [0,1) for the n-th
// leg on the (from,to) pair under this plan's seed. leg distinguishes
// independent decisions for the same message (drop vs spike, request vs
// reply).
func (p FaultPlan) decide(from, to string, n uint64, leg uint64) float64 {
	h := splitmix64(p.Seed ^ hashString(from) ^ splitmix64(hashString(to)) ^ splitmix64(n*4+leg))
	return float64(h>>11) / float64(1<<53)
}

// DropSequence returns the drop decisions the plan would make for the
// first n request legs on the (from,to) host pair under rule. It is a
// pure function of the plan — two plans with equal seeds produce equal
// sequences — and exists so tests can assert determinism directly.
func (p FaultPlan) DropSequence(rule FaultRule, from, to string, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = p.decide(from, to, uint64(i), 0) < rule.DropProb
	}
	return out
}

// slowExtra returns the extra service delay the plan injects for the
// n-th message served by a slowed host `from` for client `to`: the base
// service time scaled by (factor-1) and a deterministic per-message
// jitter draw in [0.5, 1.5). Leg 4 keeps the draws independent of the
// drop/spike legs 0-3.
func (p FaultPlan) slowExtra(from, to string, n uint64, factor float64, base time.Duration) time.Duration {
	if factor <= 1 || base <= 0 {
		return 0
	}
	scale := 0.5 + p.decide(from, to, n, 4)
	return time.Duration(float64(base) * (factor - 1) * scale)
}

// SlowSequence returns the extra service delays a FaultSlow with the
// given factor would inject for the first n messages served by host from
// for client to, given the host's base per-message service time. Like
// DropSequence it is a pure function of the plan — equal seeds produce
// equal sequences — and exists so tests can assert straggler determinism
// directly.
func (p FaultPlan) SlowSequence(from, to string, factor float64, base time.Duration, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = p.slowExtra(from, to, uint64(i), factor, base)
	}
	return out
}

// FaultRecord is one applied scheduled event, for the injector's log.
type FaultRecord struct {
	At     time.Duration
	Kind   FaultKind
	Target string
}

func (r FaultRecord) String() string {
	return fmt.Sprintf("%v %s %s", r.At, r.Kind, r.Target)
}

// Injector applies a FaultPlan to a Network. Create one with
// Network.InjectFaults; the scheduled events run on a clock-registered
// goroutine so they fire at exact virtual times.
type Injector struct {
	net  *Network
	plan FaultPlan

	mu          sync.Mutex
	down        map[string]bool    // host name -> crashed
	partitioned map[string]bool    // cluster name -> cut off
	slow        map[string]float64 // host name -> service-time factor
	counters    map[[2]string]uint64
	// slowCounters sequences served messages per (server, client) pair
	// for the straggler jitter draws, separate from counters so enabling
	// FaultSlow never perturbs the drop/spike decision sequence.
	slowCounters map[[2]string]uint64
	log          []FaultRecord
	stopped      bool
}

// InjectFaults installs plan on the network and starts its event
// schedule. Only one injector can be active; installing a new one
// replaces the previous (whose pending events keep running unless
// stopped). The returned Injector reports the applied-event log.
func (n *Network) InjectFaults(plan FaultPlan) *Injector {
	inj := &Injector{
		net:          n,
		plan:         plan,
		down:         make(map[string]bool),
		partitioned:  make(map[string]bool),
		slow:         make(map[string]float64),
		counters:     make(map[[2]string]uint64),
		slowCounters: make(map[[2]string]uint64),
	}
	n.faults.Store(inj)
	events := make([]FaultEvent, len(plan.Events))
	copy(events, plan.Events)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	if len(events) > 0 {
		vclock.Go(func() { inj.run(events) })
	}
	return inj
}

func (inj *Injector) run(events []FaultEvent) {
	var elapsed time.Duration
	for _, ev := range events {
		if ev.At > elapsed {
			hrtime.Sleep(ev.At - elapsed)
			elapsed = ev.At
		}
		if !inj.apply(ev) {
			return
		}
	}
}

// Stop cancels scheduled events that have not fired yet. Probabilistic
// rules keep applying; use Network.ClearFaults to remove those too.
func (inj *Injector) Stop() {
	inj.mu.Lock()
	inj.stopped = true
	inj.mu.Unlock()
}

// ClearFaults removes the active injector; subsequent calls see a
// fault-free network. Host-down and partition state is forgotten.
func (n *Network) ClearFaults() {
	if inj := n.faults.Swap(nil); inj != nil {
		inj.Stop()
	}
}

// apply performs one scheduled event, reporting false when the injector
// was stopped first. The whole transition — state change, connection
// resets and log entry — is one critical section under inj.mu, which
// every observer (HostDown, Call's fault checks, Log) also takes: once
// HostDown reports a crashed host, every connection it had is already
// reset, so a call on one fails with ErrConnClosed, never ErrHostDown.
// Lock order is inj.mu, then the network's connection locks; nothing
// holding those takes inj.mu.
func (inj *Injector) apply(ev FaultEvent) bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.stopped {
		return false
	}
	target := ev.Host
	if target == "" {
		target = ev.Cluster
	}
	switch ev.Kind {
	case FaultCrash:
		inj.down[ev.Host] = true
		inj.net.resetConnsMatching(func(c *Conn) bool {
			return c.client.name == ev.Host || c.server.name == ev.Host
		})
	case FaultRestart:
		delete(inj.down, ev.Host)
	case FaultPartition:
		inj.partitioned[ev.Cluster] = true
	case FaultHeal:
		delete(inj.partitioned, ev.Cluster)
	case FaultReset:
		inj.net.resetConnsMatching(func(c *Conn) bool {
			for _, h := range []*Host{c.client, c.server} {
				if ev.Host != "" && h.name == ev.Host {
					return true
				}
				if ev.Cluster != "" && h.cluster != nil && h.cluster.name == ev.Cluster {
					return true
				}
			}
			return false
		})
	case FaultSlow, FaultFast:
		clear := ev.Kind == FaultFast || ev.Factor <= 1
		for _, name := range inj.slowTargets(ev) {
			if clear {
				delete(inj.slow, name)
			} else {
				inj.slow[name] = ev.Factor
			}
		}
		if ev.Kind == FaultSlow && !clear {
			target = fmt.Sprintf("%s x%g", target, ev.Factor)
		}
	}
	inj.log = append(inj.log, FaultRecord{At: ev.At, Kind: ev.Kind, Target: target})
	return true
}

// Log returns the scheduled events applied so far, in application order.
func (inj *Injector) Log() []FaultRecord {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make([]FaultRecord, len(inj.log))
	copy(out, inj.log)
	return out
}

// slowTargets resolves a slow/fast event to host names: the named host,
// or every host (gateway included) of the named cluster.
func (inj *Injector) slowTargets(ev FaultEvent) []string {
	if ev.Host != "" {
		return []string{ev.Host}
	}
	if ev.Cluster == "" {
		return nil
	}
	cl, err := inj.net.ClusterByName(ev.Cluster)
	if err != nil {
		return nil
	}
	names := make([]string, 0, len(cl.hosts)+1)
	for _, h := range cl.hosts {
		names = append(names, h.name)
	}
	names = append(names, cl.gateway.name)
	return names
}

// slowServe returns the extra service time the injector charges when
// server handles one message from client: zero unless the server is
// currently slowed, otherwise a deterministic draw from the plan's slow
// sequence for the pair.
func (inj *Injector) slowServe(server, client *Host) time.Duration {
	inj.mu.Lock()
	factor, ok := inj.slow[server.name]
	if !ok {
		inj.mu.Unlock()
		return 0
	}
	key := [2]string{server.name, client.name}
	n := inj.slowCounters[key]
	inj.slowCounters[key] = n + 1
	inj.mu.Unlock()
	cost := inj.net.cost
	base := cost.WakeLatency + cost.RecvCPU + cost.SendCPU
	return inj.plan.slowExtra(server.name, client.name, n, factor, base)
}

// SlowFactor reports the active service-time factor for the named host
// (1 when the host is not slowed). Tests and harness code use it to
// observe straggler state without reaching into the injector.
func (n *Network) SlowFactor(h *Host) float64 {
	inj := n.faults.Load()
	if inj == nil {
		return 1
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if f, ok := inj.slow[h.name]; ok {
		return f
	}
	return 1
}

// hostDown reports whether h is currently crashed.
func (inj *Injector) hostDown(h *Host) bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.down[h.name]
}

// cut reports whether traffic between a and b crosses an active
// partition boundary.
func (inj *Injector) cut(a, b *Host) bool {
	if a.cluster == b.cluster {
		return false
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if len(inj.partitioned) == 0 {
		return false
	}
	part := func(h *Host) bool {
		return h.cluster != nil && inj.partitioned[h.cluster.name]
	}
	return part(a) || part(b)
}

// nextSeq returns the per-pair message sequence number for a call from a
// to b, advancing the counter.
func (inj *Injector) nextSeq(a, b *Host) uint64 {
	key := [2]string{a.name, b.name}
	inj.mu.Lock()
	n := inj.counters[key]
	inj.counters[key] = n + 1
	inj.mu.Unlock()
	return n
}

// callFaults is evaluated once at the start of a Conn.Call.
type callFaults struct {
	dropReq    bool // request leg lost: handler never runs
	dropRep    bool // reply leg lost: handler runs, caller times out
	spikeReq   bool
	spikeRep   bool
	spikeDelay time.Duration
	timeout    time.Duration
}

// planCall decides the probabilistic faults for one call from a to b.
// Returns the zero struct when no rule matches.
func (inj *Injector) planCall(a, b *Host) callFaults {
	var cf callFaults
	cf.timeout = inj.plan.timeout()
	for _, rule := range inj.plan.Rules {
		if !rule.matches(a, b) {
			continue
		}
		n := inj.nextSeq(a, b)
		cf.dropReq = inj.plan.decide(a.name, b.name, n, 0) < rule.DropProb
		cf.dropRep = inj.plan.decide(a.name, b.name, n, 1) < rule.DropProb
		cf.spikeReq = inj.plan.decide(a.name, b.name, n, 2) < rule.SpikeProb
		cf.spikeRep = inj.plan.decide(a.name, b.name, n, 3) < rule.SpikeProb
		cf.spikeDelay = rule.SpikeDelay
		break
	}
	return cf
}

// HostDown reports whether the named host is currently crashed by the
// active fault plan. Model code (e.g. heartbeat writers in tests) uses it
// to stop doing work "on" a dead host, since goroutines are not actually
// killed by a modelled crash.
func (n *Network) HostDown(h *Host) bool {
	inj := n.faults.Load()
	return inj != nil && inj.hostDown(h)
}

// injector returns the active injector, or nil.
func (n *Network) injector() *Injector {
	return n.faults.Load()
}
