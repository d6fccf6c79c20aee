package monitor

import (
	"fmt"
	"sync"
	"time"

	"eventspace/internal/analysis"
	"eventspace/internal/cluster"
	"eventspace/internal/collect"
	"eventspace/internal/cosched"
	"eventspace/internal/escope"
	"eventspace/internal/hrtime"
	"eventspace/internal/pastset"
	"eventspace/internal/paths"
	"eventspace/internal/vclock"
	"eventspace/internal/vnet"
)

// lbJoin joins contributor tuples per round and reports the last arriver.
// The load-balance monitor does not need the collective tuple: the last
// arrival is the contributor tuple with the largest down timestamp. It
// sits on the same pending-round table as analysis.Joiner and adds only
// the failover floor.
type lbJoin struct {
	rounds *analysis.Rounds
	// floor drops tuples of rounds already completed before a front-end
	// failover: a replay-seeded join ignores Seq <= floor so re-read
	// tuples cannot double-count a finished round. maxDone tracks the
	// highest completed Seq and becomes the next failover's floor.
	floor   uint32
	maxDone uint32
}

// lbMaxPending is the live join's eviction bound.
const lbMaxPending = 256

func newLBJoin(k, maxPending int) *lbJoin {
	return &lbJoin{rounds: analysis.NewRounds(k, maxPending)}
}

// add feeds a contributor tuple; when the round completes it returns the
// last-arriving contributor and true. A contributor outside [0, k) is
// ignored: it could only index past the round's slot.
//
//lint:hotpath the last-arrival fold, once per contributor tuple
func (j *lbJoin) add(contributor int, t collect.TraceTuple) (int, bool) {
	if j.floor > 0 && t.Seq <= j.floor {
		return 0, false
	}
	if contributor < 0 || contributor >= j.rounds.K() {
		return 0, false
	}
	r := j.rounds.Open(t.Seq)
	r.Set(contributor, t)
	if !r.Full() {
		return 0, false
	}
	if t.Seq > j.maxDone {
		j.maxDone = t.Seq
	}
	// Largest Start wins; ties go to the higher contributor index.
	last, lastStart := -1, int64(-1)
	for c := range r.Contribs {
		if start := r.Contribs[c].Start; start >= lastStart {
			last, lastStart = c, start
		}
	}
	j.rounds.Done(r)
	return last, true
}

// LoadBalanceMode selects between the two figure-3 implementations.
type LoadBalanceMode int

// Load-balance monitor modes.
const (
	// SingleScope pulls raw trace tuples through one event scope with a
	// per-node reduce wrapper on each compute host.
	SingleScope LoadBalanceMode = iota
	// Distributed runs an analysis thread per host that maintains the
	// arrival-order state; only intermediate results are gathered.
	Distributed
)

// String names the mode.
func (m LoadBalanceMode) String() string {
	if m == Distributed {
		return "distributed"
	}
	return "single-scope"
}

// LoadBalance is the load-balance monitor of section 4.3.
type LoadBalance struct {
	mode LoadBalanceMode
	cfg  Config
	tree *cluster.Tree
	fe   *vnet.Host

	// Recovery seeding (NewLoadBalance with a resume handoff): joins drop
	// rounds at or below the handoff floors, so the replacement re-reads
	// the retained windows and continues instead of recounting.
	floors map[string]uint32

	scope    *escope.Scope
	puller   *escope.Puller
	weighted *WeightedTree
	ingest   *collect.IngestQueue

	feElems map[uint32]*pastset.Element // per collective wrapper, on the front-end
	names   map[uint32]string           // wrapper id -> node name

	// Distributed-analysis state.
	cs       *cosched.Set
	hosts    []*lbHostAnalysis
	stop     chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once
}

// lbHostAnalysis is one host's analysis thread state (distributed mode).
type lbHostAnalysis struct {
	host    *vnet.Host
	nodes   []*lbNodeState
	interm  *pastset.Element
	written map[[2]uint32]uint64 // (node, contributor) -> last written count
}

type lbNodeState struct {
	node    *cluster.Node
	join    *lbJoin
	cursors []*pastset.Cursor // per contributor EC buffer
	counts  []uint64          // last-arrival counts per contributor
	dirty   bool
}

// NewLoadBalance builds a load-balance monitor over an instrumented tree.
// cs may be nil (no coscheduling); when set, it must be the same set wired
// into the tree's notifier.
//
// resume, when non-nil, continues a lost front end's archive-replayed
// state instead of starting empty: the weighted tree starts from the
// handoff's, and each node's join ignores rounds at or below its floor,
// so re-reading the retained trace windows counts only the rounds the
// archive did not complete — a round half-joined at the handoff exactly
// once. Single-scope mode only: the distributed monitor's cumulative
// intermediate records live on the compute hosts and survive the front
// end on their own.
func NewLoadBalance(tb *cluster.Testbed, tree *cluster.Tree, mode LoadBalanceMode, cfg Config, cs *cosched.Set, resume *LoadBalanceResume) (*LoadBalance, error) {
	if !tree.Spec.Instrument {
		return nil, fmt.Errorf("monitor: load balance needs an instrumented tree")
	}
	if resume != nil && mode != SingleScope {
		return nil, fmt.Errorf("monitor: a resume handoff seeds single-scope mode only (distributed state is host-resident and would be overwritten by the seed)")
	}
	lb := &LoadBalance{
		mode:     mode,
		cfg:      cfg,
		tree:     tree,
		fe:       tb.FrontEnd,
		weighted: NewWeightedTree(),
		feElems:  make(map[uint32]*pastset.Element),
		names:    make(map[uint32]string),
		cs:       cs,
		stop:     make(chan struct{}),
	}
	if resume != nil {
		lb.floors = resume.Floors
		for _, node := range resume.Weighted.Nodes() {
			for c, n := range resume.Weighted.Counts(node) {
				lb.weighted.Add(node, c, n)
			}
		}
	}
	if err := lb.build(tb); err != nil {
		// Whatever build registered would block the next monitor over
		// this tree from taking the same buffer names.
		lb.release()
		return nil, err
	}
	return lb, nil
}

// build registers the monitor's buffers and builds its event scope.
func (lb *LoadBalance) build(tb *cluster.Testbed) error {
	mode, cfg, tree := lb.mode, lb.cfg, lb.tree
	for _, n := range tree.Nodes {
		id := n.CollectiveEC.ID()
		lb.names[id] = n.Name
		elem, err := tb.FrontEnd.Registry.CreateFixed(fmt.Sprintf("lb/%s/%s/%s", mode, tree.Name, n.Name), 4096, analysis.LastArrivalRecordSize)
		if err != nil {
			return err
		}
		lb.feElems[id] = elem
	}

	var spec escope.Spec
	spec.Name = fmt.Sprintf("lbscope/%s/%s", mode, tree.Name)
	spec.FrontEnd = tb.FrontEnd
	spec.GatewayHelpers = cfg.GatewayHelpers
	spec.RootHelpers = cfg.RootHelpers
	spec.Health = cfg.Health
	spec.Retry = cfg.Retry
	spec.Breaker = cfg.Breaker
	spec.Metrics = cfg.Metrics

	// The ingest queue decouples the gather thread from the front-end
	// analysis: the puller pushes gathered batches, a drainer applies
	// them, and under overload the oldest batch is shed instead of the
	// event-scope tree stalling. In summary-only mode (SetScopeMode) it
	// folds batches into counters without retaining payloads.
	lb.ingest = collect.NewIngestQueue(collect.DefaultIngestCap)
	lb.ingest.SetMetrics(
		cfg.Metrics.Counter(spec.Name+"/ingest.shed.batches"),
		cfg.Metrics.Counter(spec.Name+"/ingest.shed.tuples"))

	switch mode {
	case SingleScope:
		if err := lb.buildSingleScopeSources(&spec); err != nil {
			return err
		}
	case Distributed:
		if err := lb.buildDistributed(&spec); err != nil {
			return err
		}
	default:
		return fmt.Errorf("monitor: unknown load-balance mode %d", mode)
	}

	scope, err := escope.Build(tb.Net, spec)
	if err != nil {
		return err
	}
	lb.scope = scope
	return nil
}

// buildSingleScopeSources creates one source per collective wrapper: a
// reduce wrapper on the node's host that joins the node's contributor
// trace buffers and keeps only each round's last-arrival record.
func (lb *LoadBalance) buildSingleScopeSources(spec *escope.Spec) error {
	for _, n := range lb.tree.Nodes {
		n := n
		id := n.CollectiveEC.ID()
		var readers []*paths.BatchReader
		var chains []paths.Wrapper
		for i, ec := range n.ContribECs {
			rd := paths.NewBatchReader(
				fmt.Sprintf("lb/rd(%s.c%d)", n.Name, i), n.Host, ec.Buffer(), collect.TupleSize, lb.cfg.readBatch())
			readers = append(readers, rd)
			chains = append(chains, rd)
		}
		gather, err := paths.NewGather("lb/hg("+n.Name+")", n.Host, chains, 0)
		if err != nil {
			return err
		}
		join := newLBJoin(n.AR.Fanin(), lbMaxPending)
		join.floor = lb.floors[n.Name]
		cost := lb.cfg.AnalysisCostPerTuple
		host := n.Host
		reduce := paths.NewTransform("lb/reduce("+n.Name+")", n.Host, gather, func(rep paths.Reply) (paths.Reply, error) {
			tuples, err := collect.DecodeAll(rep.Data)
			if err != nil {
				return paths.Reply{}, err
			}
			// Contributor identity comes from the tuple's ECID, not from
			// its place in the gathered concatenation.
			var out []byte
			nrec := 0
			for _, tu := range tuples {
				ec, ok := lb.tree.Collectors.ByID(tu.ECID)
				if !ok {
					continue
				}
				if last, done := join.add(ec.Meta().Contributor, tu); done {
					rec := analysis.LastArrivalRecord{Node: id, Contributor: uint16(last), Count: 1}
					out = rec.Append(out)
					nrec++
				}
			}
			// The reduce computation costs CPU on the compute host.
			if len(tuples) > 0 && cost > 0 {
				host.Occupy(time.Duration(len(tuples)) * cost)
			}
			return paths.Reply{Data: out, Ret: int16(nrec)}, nil
		})
		spec.Sources = append(spec.Sources, escope.Source{
			Host: n.Host, Custom: reduce, Readers: readers,
		})
	}
	return nil
}

// buildDistributed creates per-host analysis state and sources over the
// hosts' intermediate-result buffers.
func (lb *LoadBalance) buildDistributed(spec *escope.Spec) error {
	byHost := make(map[*vnet.Host]*lbHostAnalysis)
	for _, n := range lb.tree.Nodes {
		ha, ok := byHost[n.Host]
		if !ok {
			interm, err := n.Host.Registry.CreateFixed(
				fmt.Sprintf("lbint/%s/%s", lb.tree.Name, n.Host.Name()), lb.cfg.intermediateCap(), analysis.LastArrivalRecordSize)
			if err != nil {
				return err
			}
			ha = &lbHostAnalysis{host: n.Host, interm: interm, written: make(map[[2]uint32]uint64)}
			byHost[n.Host] = ha
			lb.hosts = append(lb.hosts, ha)
		}
		st := &lbNodeState{
			node:   n,
			join:   newLBJoin(n.AR.Fanin(), lbMaxPending),
			counts: make([]uint64, n.AR.Fanin()),
		}
		for _, ec := range n.ContribECs {
			st.cursors = append(st.cursors, ec.Buffer().NewCursor())
		}
		ha.nodes = append(ha.nodes, st)
	}
	for _, ha := range lb.hosts {
		spec.Sources = append(spec.Sources, escope.Source{
			Host: ha.host, Elem: ha.interm, RecSize: analysis.LastArrivalRecordSize,
			BatchCap: lb.cfg.readBatch(),
		})
	}
	return nil
}

// analysisLoop is one host's distributed analysis thread.
func (lb *LoadBalance) analysisLoop(ha *lbHostAnalysis) {
	defer lb.wg.Done()
	var waiter *cosched.Waiter
	if lb.cs != nil {
		waiter = lb.cs.For(ha.host).NewWaiter()
	}
	var batch []byte
	for {
		select {
		case <-lb.stop:
			return
		default:
		}
		if waiter != nil && !waiter.Await() {
			return
		}
		processed := 0
		for _, st := range ha.nodes {
			for i, cur := range st.cursors {
				processed += drainTuples(cur, &batch, func(tu collect.TraceTuple) {
					if last, done := st.join.add(i, tu); done {
						st.counts[last]++
						st.dirty = true
					}
				})
			}
		}
		if processed > 0 && lb.cfg.AnalysisCostPerTuple > 0 {
			ha.host.Occupy(time.Duration(processed) * lb.cfg.AnalysisCostPerTuple)
		}
		if processed == 0 {
			// The paper's analysis threads block in PastSet reads when
			// a trace buffer is empty; back off so an idle analysis
			// thread does not busy-spin.
			hrtime.SleepUnscaled(50 * time.Microsecond)
		}
		// Write cumulative intermediate results for nodes that changed.
		for _, st := range ha.nodes {
			if !st.dirty {
				continue
			}
			st.dirty = false
			id := st.node.CollectiveEC.ID()
			for c, cnt := range st.counts {
				key := [2]uint32{id, uint32(c)}
				if ha.written[key] == cnt {
					continue
				}
				ha.written[key] = cnt
				rec := analysis.LastArrivalRecord{Node: id, Contributor: uint16(c), Count: cnt}
				var scratch [analysis.LastArrivalRecordSize]byte
				if _, err := ha.interm.WriteCopy(rec.Append(scratch[:0])); err != nil {
					return
				}
			}
		}
		if lb.cfg.AnalysisInterval > 0 {
			hrtime.Sleep(lb.cfg.AnalysisInterval)
		}
	}
}

// Start launches the monitor's threads: the per-host analysis threads (in
// distributed mode), the front-end gather thread, and the updater applying
// gathered records to the weighted tree.
func (lb *LoadBalance) Start() {
	if lb.mode == Distributed {
		for _, ha := range lb.hosts {
			ha := ha
			lb.wg.Add(1)
			vclock.Go(func() { lb.analysisLoop(ha) })
		}
	}
	scatter, _ := paths.NewScatter("lb/scatter", lb.fe, analysis.LastArrivalRecordSize,
		func(rec []byte) (*pastset.Element, error) {
			r, err := analysis.DecodeLastArrivalRecord(rec)
			if err != nil {
				return nil, err
			}
			return lb.feElems[r.Node], nil // unknown nodes filtered (nil)
		})
	// The gather thread only enqueues; applying records to the front-end
	// buffers happens on the drainer thread below. Push never blocks and
	// never fails, so a slow front-end analysis can no longer stall the
	// event-scope tree — it sheds the oldest undigested batch instead.
	lb.puller = lb.scope.StartPuller(lb.cfg.PullInterval, func(rep paths.Reply) error {
		lb.ingest.Push(rep.Data)
		return nil
	})
	lb.wg.Add(1)
	vclock.Go(func() {
		defer lb.wg.Done()
		for {
			data, ok := lb.ingest.Pop()
			if !ok {
				select {
				case <-lb.stop:
					// Stop halts the puller before closing lb.stop, so
					// an empty queue here is final: everything gathered
					// was applied.
					return
				default:
				}
				hrtime.SleepUnscaled(50 * time.Microsecond)
				continue
			}
			// Scatter filters unknown records itself; a decode error in
			// one batch must not kill the drainer.
			_, _ = scatter.Op(nil, paths.Request{Kind: paths.OpWrite, Data: data})
		}
	})
	// Updater thread: reads the front-end buffers and maintains the
	// weighted tree used by visualizations.
	cursors := make(map[uint32]*pastset.Cursor, len(lb.feElems))
	for id, e := range lb.feElems {
		cursors[id] = e.NewCursor()
	}
	lb.wg.Add(1)
	vclock.Go(func() {
		defer lb.wg.Done()
		var batch []byte
		for {
			idle := true
			for id, cur := range cursors {
				// The front-end buffers are created with this record
				// size (newLoadBalance), so the drain cannot refuse it.
				batch, _, _ = cur.DrainBytesInto(batch[:0], 0, analysis.LastArrivalRecordSize)
				for off := 0; off < len(batch); off += analysis.LastArrivalRecordSize {
					r, err := analysis.DecodeLastArrivalRecord(batch[off : off+analysis.LastArrivalRecordSize])
					if err != nil {
						continue
					}
					idle = false
					name := lb.names[id]
					if lb.mode == Distributed {
						// Cumulative counts: newest state wins.
						lb.weighted.Set(name, int(r.Contributor), r.Count)
					} else {
						lb.weighted.Add(name, int(r.Contributor), r.Count)
					}
				}
			}
			select {
			case <-lb.stop:
				if idle {
					return
				}
			default:
			}
			if idle {
				hrtime.SleepUnscaled(100 * time.Microsecond)
			}
		}
	})
}

// Stop halts all monitor threads. It is idempotent and safe to call
// from multiple goroutines: the previous boolean guard raced (both
// callers observe false, both close — the Puller.Stop bug class,
// flagged by the closeonce analyzer), so teardown runs under a
// sync.Once and late callers block until the first finishes.
func (lb *LoadBalance) Stop() {
	lb.stopOnce.Do(func() {
		if lb.cs != nil {
			lb.cs.CloseAll()
		}
		// The puller stops before lb.stop closes so the ingest drainer
		// can treat empty-queue-and-stopped as "fully drained" — no
		// gathered batch is lost at a clean shutdown.
		if lb.puller != nil {
			lb.puller.Stop()
		}
		close(lb.stop)
		lb.wg.Wait()
		lb.scope.Close()
		lb.release()
	})
}

// release removes the buffers the monitor registered. The front-end
// analysis buffers die with the monitor: a replacement built after a
// front-end loss re-creates them under the same names (the host registry
// models front-end memory, and the paper's front-end state is not
// persistent).
func (lb *LoadBalance) release() {
	for _, e := range lb.feElems {
		_ = lb.fe.Registry.Remove(e.Name())
	}
	for _, ha := range lb.hosts {
		_ = ha.host.Registry.Remove(ha.interm.Name())
	}
}

// Weighted returns the front-end weighted tree.
func (lb *LoadBalance) Weighted() *WeightedTree { return lb.weighted }

// Scope exposes the monitor's event scope, for runtime tree repair
// (reconfig) and topology inspection.
func (lb *LoadBalance) Scope() *escope.Scope { return lb.scope }

// GatherRate reports the fraction of source tuples the monitor's event
// scope read before they were discarded: raw trace tuples in single-scope
// mode, intermediate result tuples in distributed mode (Tables 1 and 2).
func (lb *LoadBalance) GatherRate() float64 { return lb.scope.GatherRate() }

// TraceReadRate reports, in distributed mode, the fraction of trace
// tuples the analysis threads read before discard.
func (lb *LoadBalance) TraceReadRate() float64 {
	if lb.mode == SingleScope {
		return lb.scope.GatherRate()
	}
	var read, skipped uint64
	for _, ha := range lb.hosts {
		for _, st := range ha.nodes {
			for _, cur := range st.cursors {
				read += cur.Read()
				skipped += cur.Skipped()
			}
		}
	}
	if read+skipped == 0 {
		return 1
	}
	return float64(read) / float64(read+skipped)
}

// RoundsObserved returns the number of last-arrival observations applied
// to the weighted tree (single-scope mode) — a liveness measure.
func (lb *LoadBalance) RoundsObserved() uint64 { return lb.weighted.Total() }

// Coverage annotates the monitor's view with who it is hearing from:
// source hosts reporting vs expected and the age of the oldest
// successful gather. With no HealthPolicy configured, coverage is always
// complete by construction (a fault fails the pull instead).
func (lb *LoadBalance) Coverage() escope.Coverage { return lb.scope.Coverage() }

// SetScopeMode moves the monitor along the degradation ladder: the event
// scope's breakers observe the new rung on their next decision, and
// summary-only additionally sheds gathered payloads at the ingest queue,
// keeping only aggregate counts. Every change is logged by the scope and
// delivered to the mode hook (see SetScopeModeHook).
func (lb *LoadBalance) SetScopeMode(m escope.Mode) {
	lb.scope.SetMode(m)
	lb.ingest.SetSummaryOnly(m == escope.ModeSummary)
}

// ScopeMode returns the current degradation-ladder rung.
func (lb *LoadBalance) ScopeMode() escope.Mode { return lb.scope.Mode() }

// ScopeModeLog returns every mode transition so far, in order.
func (lb *LoadBalance) ScopeModeLog() []escope.ModeChange { return lb.scope.ModeLog() }

// SetScopeModeHook installs the function receiving every mode
// transition (past transitions are replayed into it on install). The
// archive recorder uses it to persist mode changes as control tuples.
func (lb *LoadBalance) SetScopeModeHook(fn func(escope.ModeChange)) { lb.scope.SetModeHook(fn) }

// IngestStats snapshots the monitor's ingest-queue accounting (shed and
// summarized batches under overload).
func (lb *LoadBalance) IngestStats() collect.IngestStats { return lb.ingest.Stats() }
