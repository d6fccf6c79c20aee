// Package escope builds event scopes: the aggregation/gather networks
// monitors use to pull trace tuples and intermediate results from compute
// hosts to a front-end (section 4).
//
// An event scope is a spanning tree of PATHS wrappers. This package wires
// the hierarchy-aware shape the paper converged on (section 6.2,
// "Scalability"): a batch reader (plus optional data-manipulation
// transform) per source buffer on its compute host, one gather wrapper on
// each cluster's gateway reading the cluster's hosts over per-host
// connections, and a root gather on the monitor front-end reading the
// gateways. Intra-host reduction happens before inter-host gathering, and
// intra-cluster gathering before inter-cluster gathering.
//
// Gather wrappers run sequentially in the pulling thread's context, or in
// parallel with helper threads — the paper's central performance knob
// (sequential vs parallel rows of Tables 1-3).
//
// With a HealthPolicy the tree is also mutable at runtime: the scope
// retains its topology (which member hangs off which gateway), publishes
// guard state transitions through SetTransitionHook, and exposes the
// repair primitives ReparentHost and PromoteGateway that the reconfig
// manager drives when a gateway dies (see repair.go).
package escope

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eventspace/internal/hrtime"
	"eventspace/internal/metrics"
	"eventspace/internal/pastset"
	"eventspace/internal/paths"
	"eventspace/internal/vclock"
	"eventspace/internal/vnet"
)

// Source is one buffer an event scope pulls from.
type Source struct {
	Host     *vnet.Host
	Elem     *pastset.Element
	RecSize  int // fixed record size of the buffer's tuples
	BatchCap int // max records per pull; 0 = drain fully
	// Custom, when set, replaces the Elem/RecSize reader with an
	// arbitrary wrapper on Host (e.g. a per-node reduce over several
	// trace buffers — the paper's "data can be reduced or filtered close
	// to the source"). Readers lists the batch readers underneath it so
	// gather-rate accounting still works.
	Custom  paths.Wrapper
	Readers []*paths.BatchReader
	// FromEnd starts the source's cursor after the newest retained tuple
	// instead of at the oldest: only tuples written after the build are
	// seen. A scope rebuilt during front-end failover sets it so the
	// resumed archive does not duplicate tuples the sealed archive
	// already holds. Ignored for Custom sources.
	FromEnd bool
}

// Spec describes an event scope to build.
type Spec struct {
	Name     string
	FrontEnd *vnet.Host
	// GatewayHelpers is the helper-thread count of each cluster-gateway
	// gather wrapper (0 = sequential gathering).
	GatewayHelpers int
	// RootHelpers is the helper-thread count of the front-end root
	// gather wrapper.
	RootHelpers int
	Sources     []Source
	// Health, when set, wraps every remote child in a health guard:
	// transport faults degrade the gather to partial coverage instead of
	// failing it, dead children are skipped and probed with backoff, and
	// Scope.Coverage reports who is reporting. It also makes the tree
	// repairable: the root is always a mutable gather and the repair
	// primitives work. nil keeps the legacy fail-fast behaviour.
	Health *HealthPolicy
	// Retry, when set, is applied to every remote stub in the scope
	// (with a per-stub deterministic jitter seed) together with a
	// reconnect path, so transient faults are retried before the health
	// guard ever sees them. nil keeps single-attempt stubs.
	Retry *paths.RetryPolicy
	// Breaker, when set (requires Health), wraps every health guard in a
	// straggler circuit breaker: outside ModeStrict each child call is
	// bounded by the policy's round deadline, slow children are skipped
	// and served stale within the staleness bound, and Coverage reports
	// them as Stale/Skipped. nil keeps unbounded gathers.
	Breaker *BreakerPolicy
	// Metrics, when set, wires every wrapper the build creates (stubs,
	// readers, gathers), the scope's pulls and its pullers into the
	// self-metrics registry. nil disables self-metrics entirely.
	Metrics *metrics.Registry
}

// memberLink is one source host's attachment to its cluster gather.
type memberLink struct {
	host  *vnet.Host
	entry paths.Wrapper // host-local chain below any stub
	child paths.Wrapper // wrapper installed in the cluster gather
	guard *guard        // leaf guard (nil when the member is the gateway itself)
	stub  *paths.Remote // leaf stub (nil when local)
}

// clusterLink is one cluster's subtree: its gather on the (current)
// gateway host, the front-end uplink reading it, and its members.
type clusterLink struct {
	name    string
	gw      *vnet.Host
	gather  *paths.Gather
	uplink  paths.Wrapper // child installed in the root gather
	uguard  *guard
	ustub   *paths.Remote
	members map[string]*memberLink // keyed by host name
}

// Scope is a built event scope.
type Scope struct {
	name    string
	root    paths.Wrapper
	readers []*paths.BatchReader

	net        *vnet.Network
	frontEnd   *vnet.Host
	gwHelpers  int
	health     *HealthPolicy
	retry      *paths.RetryPolicy
	breakerPol *BreakerPolicy

	// The degradation-ladder rung, read on every breaker decision.
	mode atomic.Int32

	// Connection bookkeeping: the scope tracks exactly the live
	// connections (redial replaces its stub's entry instead of
	// accumulating), and Close is sticky — connections dialled after
	// Close are closed immediately instead of leaking.
	connsMu sync.Mutex
	conns   map[*vnet.Conn]struct{}
	closed  bool

	// Tree state below is mutable at runtime (repair); treeMu guards it.
	treeMu       sync.Mutex
	guards       []*guard
	breakers     []*breaker
	coverPaths   map[string][]*guard // source host name -> guards on its path
	clusters     map[string]*clusterLink
	clusterOrder []string
	rootG        *paths.Gather   // non-nil iff health tracking is on
	everMissing  map[string]bool // hosts that were cut off at some point

	hook atomic.Pointer[func(Transition)]

	pulls atomic.Uint64

	met    *metrics.Registry
	pullOp *metrics.Op
}

// addConn tracks a live connection. It reports false — and closes the
// connection — when the scope is already closed.
func (s *Scope) addConn(c *vnet.Conn) bool {
	s.connsMu.Lock()
	if s.closed {
		s.connsMu.Unlock()
		c.Close()
		return false
	}
	s.conns[c] = struct{}{}
	s.connsMu.Unlock()
	return true
}

// dropConn forgets a connection replaced by a redial (the stub closes
// it); keeping it tracked would grow Close's work unboundedly.
func (s *Scope) dropConn(c *vnet.Conn) {
	s.connsMu.Lock()
	delete(s.conns, c)
	s.connsMu.Unlock()
}

func hashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// stubTo wires a stub from -> to over a fresh connection, applying the
// scope's retry policy (with a reconnect path) and health guard. The
// returned guard is nil when health tracking is off. Used both at build
// time and by the runtime repair primitives; callers on the repair path
// hold treeMu (guard registration here touches only s.guards via the
// caller).
func (s *Scope) stubTo(label string, from, to *vnet.Host, entry paths.Wrapper, role GuardRole, cluster string) (paths.Wrapper, *guard, *paths.Remote) {
	svc := paths.NewService()
	target := svc.Register(entry)
	conn := s.net.Dial(from, to, svc.Handler())
	s.addConn(conn)
	name := fmt.Sprintf("%s/stub(%s)", s.name, label)
	stub := paths.NewRemote(name, from, conn, target)
	// Every stub, guard and breaker, the ones repair builds included,
	// hands the registry its own counts; the scope's counters are their
	// sums, and a link torn down keeps its counts in them.
	if s.met != nil {
		stub.SetMetrics(s.met.Op(metrics.KindStub, name))
		stub.RegisterCounts(s.met, s.name+"/stub")
	}
	if s.retry != nil {
		pol := *s.retry
		if pol.JitterSeed == 0 {
			pol.JitterSeed = hashName(name)
		}
		stub.SetRetry(&pol)
		stub.SetRedial(func(stale vnet.Caller) (vnet.Caller, uint32, error) {
			nc := s.net.Dial(from, to, svc.Handler())
			if !s.addConn(nc) {
				return nil, 0, fmt.Errorf("escope: %s: scope closed", s.name)
			}
			if oc, ok := stale.(*vnet.Conn); ok {
				s.dropConn(oc)
			}
			return nc, target, nil
		})
	}
	if s.health == nil {
		return stub, nil, stub
	}
	g := newGuard(name+"!guard", to.Name(), stub, s.health)
	g.role, g.cluster = role, cluster
	s.met.Count(s.name+"/health.faults", g.faults)
	s.met.Count(s.name+"/health.deaths", g.deaths)
	s.met.Count(s.name+"/health.recoveries", g.recoveries)
	if s.breakerPol == nil {
		g.notify = func(tr Transition) { s.dispatch(g, tr) }
		return g, g, stub
	}
	// Breaker -> guard -> stub: the breaker bounds each round's wait on
	// the child, the guard underneath absorbs transport faults. Guard
	// transitions drive the breaker before fanning out to the scope's
	// hook. The breaker registers itself here (Build runs
	// single-threaded; repair callers hold treeMu) so the repair
	// primitives get breakers on rebuilt links for free.
	br := newBreaker(name+"!breaker", to.Name(), g, s.breakerPol, &s.mode)
	g.br = br
	br.op = s.met.Op(metrics.KindBreaker, br.name)
	s.met.Count(s.name+"/breaker.trips", br.trips)
	s.met.Count(s.name+"/breaker.overruns", br.totOverruns)
	s.met.Count(s.name+"/breaker.skips", br.skips)
	s.met.Count(s.name+"/breaker.stale", br.stales)
	g.notify = func(tr Transition) {
		br.onGuardTransition(tr)
		s.dispatch(g, tr)
	}
	s.breakers = append(s.breakers, br)
	return br, g, stub
}

// dispatch fans a guard transition out: hosts whose cover path includes
// the now-dead guard are marked as having been missing (feeding
// Coverage.Recovered), then the installed hook — the reconfig manager's
// event queue — receives the transition.
func (s *Scope) dispatch(g *guard, tr Transition) {
	if tr.To == Dead {
		s.treeMu.Lock()
		for host, path := range s.coverPaths {
			for _, pg := range path {
				if pg == g {
					s.everMissing[host] = true
					break
				}
			}
		}
		s.treeMu.Unlock()
	}
	if h := s.hook.Load(); h != nil {
		(*h)(tr)
	}
}

// SetTransitionHook installs (or, with nil, removes) the function that
// receives every guard state transition. The hook runs in the pulling
// goroutine's context and must not block; the reconfig manager pushes
// into a clock-aware queue.
func (s *Scope) SetTransitionHook(fn func(Transition)) {
	if fn == nil {
		s.hook.Store(nil)
		return
	}
	s.hook.Store(&fn)
}

// instrumentGather wires a gather into the self-metrics registry (no-op
// when metrics are off).
func (s *Scope) instrumentGather(g *paths.Gather, err error) (*paths.Gather, error) {
	if err == nil && s.met != nil {
		g.SetMetrics(s.met.Op(metrics.KindGather, g.Name()))
	}
	return g, err
}

// pathOf filters the nil guards out of a gather path.
func pathOf(gs ...*guard) []*guard {
	var out []*guard
	for _, g := range gs {
		if g != nil {
			out = append(out, g)
		}
	}
	return out
}

// Build wires the event scope described by spec over net.
func Build(net *vnet.Network, spec Spec) (*Scope, error) {
	if spec.FrontEnd == nil {
		return nil, fmt.Errorf("escope: %q: no front-end host", spec.Name)
	}
	if len(spec.Sources) == 0 {
		return nil, fmt.Errorf("escope: %q: no sources", spec.Name)
	}
	if spec.Breaker != nil && spec.Health == nil {
		return nil, fmt.Errorf("escope: %q: Breaker requires Health (breakers wrap health guards)", spec.Name)
	}
	s := &Scope{
		name:        spec.Name,
		net:         net,
		frontEnd:    spec.FrontEnd,
		gwHelpers:   spec.GatewayHelpers,
		health:      spec.Health,
		retry:       spec.Retry,
		breakerPol:  spec.Breaker,
		conns:       make(map[*vnet.Conn]struct{}),
		coverPaths:  make(map[string][]*guard),
		clusters:    make(map[string]*clusterLink),
		everMissing: make(map[string]bool),
		met:         spec.Metrics,
	}
	if s.met != nil {
		s.pullOp = s.met.Op(metrics.KindScopePull, spec.Name)
	}

	// Per-host chains: reader (+ transform), grouped by host.
	type hostChains struct {
		host   *vnet.Host
		chains []paths.Wrapper
	}
	byHost := make(map[*vnet.Host]*hostChains)
	var hostOrder []*vnet.Host
	for i, src := range spec.Sources {
		if src.Host == nil || (src.Elem == nil && src.Custom == nil) {
			return nil, fmt.Errorf("escope: %q: source %d incomplete", spec.Name, i)
		}
		var chain paths.Wrapper
		if src.Custom != nil {
			chain = src.Custom
			s.readers = append(s.readers, src.Readers...)
		} else {
			if src.RecSize <= 0 {
				return nil, fmt.Errorf("escope: %q: source %d: record size %d", spec.Name, i, src.RecSize)
			}
			newReader := paths.NewBatchReader
			if src.FromEnd {
				newReader = paths.NewBatchReaderAtEnd
			}
			rd := newReader(
				fmt.Sprintf("%s/rd%d(%s)", spec.Name, i, src.Elem.Name()),
				src.Host, src.Elem, src.RecSize, src.BatchCap)
			if s.met != nil {
				rd.SetMetrics(s.met.Op(metrics.KindReader, rd.Name()))
			}
			s.readers = append(s.readers, rd)
			chain = rd
		}
		hc, ok := byHost[src.Host]
		if !ok {
			hc = &hostChains{host: src.Host}
			byHost[src.Host] = hc
			hostOrder = append(hostOrder, src.Host)
		}
		hc.chains = append(hc.chains, chain)
	}

	// Group hosts by cluster; hosts outside any cluster (and the
	// front-end itself) attach directly under the root.
	type clusterGroup struct {
		cluster *vnet.Cluster
		hosts   []*hostChains
	}
	byCluster := make(map[*vnet.Cluster]*clusterGroup)
	var clusterOrder []*vnet.Cluster
	var direct []*hostChains
	for _, h := range hostOrder {
		hc := byHost[h]
		cl := h.Cluster()
		if cl == nil || h == spec.FrontEnd {
			direct = append(direct, hc)
			continue
		}
		cg, ok := byCluster[cl]
		if !ok {
			cg = &clusterGroup{cluster: cl}
			byCluster[cl] = cg
			clusterOrder = append(clusterOrder, cl)
		}
		cg.hosts = append(cg.hosts, hc)
	}

	// hostEntry builds the single wrapper representing one host's
	// sources: the chain itself, or a local gather joining several.
	hostEntry := func(hc *hostChains) (paths.Wrapper, error) {
		if len(hc.chains) == 1 {
			return hc.chains[0], nil
		}
		return s.instrumentGather(paths.NewGather(
			fmt.Sprintf("%s/hostgather(%s)", spec.Name, hc.host.Name()),
			hc.host, hc.chains, 0))
	}

	var rootChildren []paths.Wrapper
	for _, cl := range clusterOrder {
		cg := byCluster[cl]
		gw := cl.Gateway()
		link := &clusterLink{name: cl.Name(), gw: gw, members: make(map[string]*memberLink)}
		var gwChildren []paths.Wrapper
		for _, hc := range cg.hosts {
			entry, err := hostEntry(hc)
			if err != nil {
				return nil, err
			}
			m := &memberLink{host: hc.host, entry: entry}
			if hc.host == gw {
				m.child = entry
			} else {
				// The gateway reads the host over its own connection.
				m.child, m.guard, m.stub = s.stubTo(
					fmt.Sprintf("%s->%s", gw.Name(), hc.host.Name()),
					gw, hc.host, entry, RoleLeaf, cl.Name())
				if m.guard != nil {
					s.guards = append(s.guards, m.guard)
				}
			}
			gwChildren = append(gwChildren, m.child)
			link.members[hc.host.Name()] = m
		}
		gwGather, err := s.instrumentGather(paths.NewGather(
			fmt.Sprintf("%s/gwgather(%s)", spec.Name, cl.Name()),
			gw, gwChildren, spec.GatewayHelpers))
		if err != nil {
			return nil, err
		}
		link.gather = gwGather
		// The front-end reads the gateway gather over a connection.
		link.uplink, link.uguard, link.ustub = s.stubTo(
			fmt.Sprintf("fe->%s", gw.Name()), spec.FrontEnd, gw, gwGather, RoleUplink, cl.Name())
		if link.uguard != nil {
			s.guards = append(s.guards, link.uguard)
		}
		rootChildren = append(rootChildren, link.uplink)
		for _, m := range link.members {
			s.coverPaths[m.host.Name()] = pathOf(link.uguard, m.guard)
		}
		s.clusters[link.name] = link
		s.clusterOrder = append(s.clusterOrder, link.name)
	}
	for _, hc := range direct {
		entry, err := hostEntry(hc)
		if err != nil {
			return nil, err
		}
		if hc.host == spec.FrontEnd {
			s.coverPaths[hc.host.Name()] = nil
			rootChildren = append(rootChildren, entry)
			continue
		}
		child, g, _ := s.stubTo(fmt.Sprintf("fe->%s", hc.host.Name()), spec.FrontEnd, hc.host, entry, RoleDirect, "")
		if g != nil {
			s.guards = append(s.guards, g)
		}
		s.coverPaths[hc.host.Name()] = pathOf(g)
		rootChildren = append(rootChildren, child)
	}

	// With health tracking on, the root is always a gather — repair
	// needs a mutable root child set even when the scope starts with a
	// single cluster. Without it, a single child is the root directly
	// (the legacy shape, one less wrapper on the pull path).
	if spec.Health == nil && len(rootChildren) == 1 {
		s.root = rootChildren[0]
		return s, nil
	}
	root, err := s.instrumentGather(paths.NewGather(spec.Name+"/root", spec.FrontEnd, rootChildren, spec.RootHelpers))
	if err != nil {
		return nil, err
	}
	s.root = root
	if spec.Health != nil {
		s.rootG = root
	}
	return s, nil
}

// SetMode moves the scope to a degradation-ladder rung (a built scope
// starts at ModeStrict). Safe to call at any time; breakers observe the
// new mode on their next decision.
func (s *Scope) SetMode(m Mode) { s.mode.Store(int32(m)) }

// Mode returns the scope's current degradation-ladder rung.
func (s *Scope) Mode() Mode { return Mode(s.mode.Load()) }

// Breakers returns a snapshot of every straggler circuit breaker in the
// scope (empty without a BreakerPolicy).
func (s *Scope) Breakers() []BreakerHealth {
	s.treeMu.Lock()
	brs := append([]*breaker(nil), s.breakers...)
	s.treeMu.Unlock()
	out := make([]BreakerHealth, 0, len(brs))
	for _, br := range brs {
		out = append(out, br.snapshot())
	}
	return out
}

// Name returns the scope's name.
func (s *Scope) Name() string { return s.name }

// Pull performs one on-demand gather through the scope, returning the
// concatenated records of every source.
func (s *Scope) Pull(ctx *paths.Ctx) (paths.Reply, error) {
	s.pulls.Add(1)
	if s.pullOp == nil {
		return s.root.Op(ctx, paths.Request{Kind: paths.OpRead})
	}
	start := hrtime.Now()
	rep, err := s.root.Op(ctx, paths.Request{Kind: paths.OpRead})
	s.pullOp.Record(hrtime.Since(start), len(rep.Data), err)
	return rep, err
}

// Pulls reports how many gathers were performed.
func (s *Scope) Pulls() uint64 { return s.pulls.Load() }

// GatherRate returns the fraction of source tuples the scope delivered
// before the bounded buffers discarded them: read / (read + skipped),
// aggregated over all source cursors. This is the paper's gather rate
// (Tables 2 and 3); 1.0 means no tuple was lost.
func (s *Scope) GatherRate() float64 {
	var read, skipped uint64
	for _, r := range s.readers {
		read += r.Cursor().Read()
		skipped += r.Cursor().Skipped()
	}
	if read+skipped == 0 {
		return 1
	}
	return float64(read) / float64(read+skipped)
}

// Coverage reports which source hosts the scope is currently hearing
// from: a host is reporting unless some health guard on its gather path
// is dead. Without a HealthPolicy every host always reports (faults fail
// the pull instead).
func (s *Scope) Coverage() Coverage {
	s.treeMu.Lock()
	defer s.treeMu.Unlock()
	cov := Coverage{Expected: len(s.coverPaths)}
	if s.breakerPol != nil {
		cov.Bound = s.breakerPol.stalenessBound()
	}
	now := hrtime.Now()
	var oldest hrtime.Stamp = -1
	for host, path := range s.coverPaths {
		dead := false
		stale, skipped := false, false
		var heard hrtime.Stamp = -1
		for _, g := range path {
			if br := g.br; br != nil {
				bs := br.snapshot()
				if bs.State != BreakerClosed {
					// A tripped breaker on the path: the host is served
					// stale while its data is within the bound, and
					// outright skipped beyond it.
					if bs.HasData && now-bs.LastData <= hrtime.Stamp(cov.Bound) {
						stale = true
					} else {
						skipped = true
					}
				}
			}
			snap := g.snapshot()
			if snap.State == Dead {
				dead = true
			}
			// Only guards that have succeeded at least once contribute to
			// staleness: an unproven guard's LastOK is its build time, and
			// folding that in would pin staleness to the age of the scope.
			if snap.Proven {
				if oldest < 0 || snap.LastOK < oldest {
					oldest = snap.LastOK
				}
				// A host's last-heard is the weakest link on its path.
				if heard < 0 || snap.LastOK < heard {
					heard = snap.LastOK
				}
			} else {
				heard = -1
				break
			}
		}
		if len(path) > 0 && heard >= 0 {
			if cov.LastHeard == nil {
				cov.LastHeard = make(map[string]hrtime.Stamp)
			}
			cov.LastHeard[host] = heard
		}
		if dead {
			cov.Missing = append(cov.Missing, host)
		} else {
			cov.Reporting++
			if s.everMissing[host] {
				cov.Recovered++
			}
			switch {
			case skipped:
				cov.Skipped = append(cov.Skipped, host)
			case stale:
				cov.Stale = append(cov.Stale, host)
			}
		}
	}
	sort.Strings(cov.Missing)
	sort.Strings(cov.Stale)
	sort.Strings(cov.Skipped)
	if oldest >= 0 {
		cov.Staleness = time.Duration(now - oldest)
	}
	return cov
}

// Health returns a snapshot of every guarded child in the scope.
func (s *Scope) Health() []ChildHealth {
	s.treeMu.Lock()
	guards := append([]*guard(nil), s.guards...)
	s.treeMu.Unlock()
	out := make([]ChildHealth, 0, len(guards))
	for _, g := range guards {
		out = append(out, g.snapshot())
	}
	return out
}

// Close shuts down the scope's connections. Close is sticky: any redial
// attempted afterwards fails and its fresh connection is closed
// immediately, so a racing retry loop cannot leak connections past
// shutdown.
func (s *Scope) Close() {
	s.connsMu.Lock()
	s.closed = true
	conns := make([]*vnet.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.conns = make(map[*vnet.Conn]struct{})
	s.connsMu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Puller is a gather thread: it pulls the scope in a loop and hands every
// reply to a sink. Monitors use pullers as their front-end gather threads.
type Puller struct {
	stop atomic.Bool
	done vclock.Event // fired when the loop exits

	// The loop's counts, allocated apart from the puller so the scope's
	// registry keeps only them alive.
	pulls, errcnt, backoffs *atomic.Uint64
}

// Error backoff for the pull loop: a pull that fails outright (root
// gather error, not a guarded partial) doubles the wait before the next
// attempt, so a scope whose tree is persistently broken does not spin
// the gather thread at full speed. The first success resets it.
const (
	pullerBackoffBase = 100 * time.Microsecond
	pullerBackoffMax  = 10 * time.Millisecond
)

// growBackoff advances the capped exponential pull-loop backoff.
func growBackoff(b time.Duration) time.Duration {
	switch {
	case b == 0:
		return pullerBackoffBase
	case b < pullerBackoffMax:
		b *= 2
		if b > pullerBackoffMax {
			b = pullerBackoffMax
		}
	}
	return b
}

// StartPuller launches a gather thread pulling every interval (modelled
// time; 0 pulls continuously). The sink receives every non-empty reply;
// a nil sink discards data (pure drain). Consecutive pull errors back
// off exponentially (modelled time, capped) instead of hot-looping.
func (s *Scope) StartPuller(interval time.Duration, sink func(paths.Reply) error) *Puller {
	p := &Puller{
		pulls: new(atomic.Uint64), errcnt: new(atomic.Uint64), backoffs: new(atomic.Uint64),
	}
	ctx := &paths.Ctx{Thread: s.name + "/gather"}
	s.met.Count(s.name+"/puller.pulls", p.pulls)
	s.met.Count(s.name+"/puller.errors", p.errcnt)
	s.met.Count(s.name+"/puller.backoffs", p.backoffs)
	vclock.Go(func() {
		defer p.done.Fire(nil, nil)
		var backoff time.Duration
		for !p.stop.Load() {
			rep, err := s.Pull(ctx)
			if err != nil {
				p.errcnt.Add(1)
				backoff = growBackoff(backoff)
			} else {
				p.pulls.Add(1)
				sinkErr := false
				if sink != nil && len(rep.Data) > 0 {
					if err := sink(rep); err != nil {
						p.errcnt.Add(1)
						sinkErr = true
					}
				}
				// A failing sink (e.g. an archive writer whose disk is
				// gone) backs the loop off exactly like a failing pull:
				// without this the puller hot-loops, discarding a pull's
				// worth of tuples per iteration at full speed.
				if sinkErr {
					backoff = growBackoff(backoff)
				} else {
					backoff = 0
				}
			}
			wait := interval
			if backoff > wait {
				wait = backoff
				p.backoffs.Add(1)
			}
			if wait > 0 {
				hrtime.Sleep(wait)
			}
		}
	})
	return p
}

// Stop halts the gather thread and waits for it to exit. It is safe to
// call concurrently and repeatedly, from the model or from a driver.
func (p *Puller) Stop() {
	p.stop.Store(true)
	_, _ = p.done.Wait()
}

// Pulls reports successful pulls.
func (p *Puller) Pulls() uint64 { return p.pulls.Load() }
