package monitor

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"eventspace/internal/analysis"
	"eventspace/internal/cluster"
	"eventspace/internal/collect"
	"eventspace/internal/cosched"
	"eventspace/internal/escope"
	"eventspace/internal/pastset"
	"eventspace/internal/paths"
	"eventspace/internal/vnet"
)

// lbJoin joins contributor tuples per round and reports the last arriver.
// The load-balance monitor does not need the collective tuple: the last
// arrival is the contributor tuple with the largest down timestamp. It
// sits on the same pending-round table as analysis.Joiner and adds only
// maxDone, the highest completed Seq, which a Replay hands a failover as
// the node's floor.
type lbJoin struct {
	rounds  *analysis.Rounds
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

	// Recovery seeding (NewLoadBalance with a resume handoff): a node
	// with a floor drops rounds at or below it, so the replacement
	// re-reads the retained windows and continues instead of recounting.
	floors map[string]uint32

	scope    *escope.Scope
	puller   *escope.Puller
	weighted *WeightedTree
	// rows resolves a gathered record's collective wrapper id to its
	// node's weighted-tree row, once at construction, as Replay
	// resolves its ports.
	rows map[uint32]*weightedRow
	// summarized counts the gathered batches summary-only mode skipped.
	summarized atomic.Uint64

	// Distributed-analysis state.
	hosts    []*lbHostAnalysis
	threads  *hostThreads
	stopOnce sync.Once
}

// lbHostAnalysis is one host's analysis thread state (distributed mode).
type lbHostAnalysis struct {
	host   *vnet.Host
	nodes  []*lbNodeState
	interm *pastset.Element
}

type lbNodeState struct {
	node      *cluster.Node
	join      *lbJoin
	cursors   []*pastset.Cursor // per contributor EC buffer
	counts    []uint64          // last-arrival counts per contributor
	published []uint64          // counts last written to the intermediate buffer
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
		weighted: NewWeightedTree(),
		rows:     make(map[uint32]*weightedRow),
		threads:  newHostThreads(cs),
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
		lb.rows[n.CollectiveEC.ID()] = lb.weighted.row(n.Name)
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
		floor, floored := lb.floors[n.Name]
		cost := lb.cfg.LoadBalanceCostPerTuple
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
				if !ok || floored && tu.Seq <= floor {
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
			ha = &lbHostAnalysis{host: n.Host, interm: interm}
			byHost[n.Host] = ha
			lb.hosts = append(lb.hosts, ha)
		}
		st := &lbNodeState{
			node:      n,
			join:      newLBJoin(n.AR.Fanin(), lbMaxPending),
			counts:    make([]uint64, n.AR.Fanin()),
			published: make([]uint64, n.AR.Fanin()),
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

// analysisPass drains and joins one host's trace buffers, charges the
// analysis CPU, and publishes the cumulative count of every contributor
// whose count changed. It returns the number of trace tuples processed.
func (lb *LoadBalance) analysisPass(ha *lbHostAnalysis, batch *[]byte) int {
	processed := 0
	for _, st := range ha.nodes {
		for i, cur := range st.cursors {
			processed += drainTuples(cur, batch, func(tu collect.TraceTuple) {
				if last, done := st.join.add(i, tu); done {
					st.counts[last]++
				}
			})
		}
	}
	if processed > 0 && lb.cfg.LoadBalanceCostPerTuple > 0 {
		ha.host.Occupy(time.Duration(processed) * lb.cfg.LoadBalanceCostPerTuple)
	}
	for _, st := range ha.nodes {
		id := st.node.CollectiveEC.ID()
		for c, cnt := range st.counts {
			if st.published[c] == cnt {
				continue
			}
			st.published[c] = cnt
			rec := analysis.LastArrivalRecord{Node: id, Contributor: uint16(c), Count: cnt}
			var scratch [analysis.LastArrivalRecordSize]byte
			if _, err := ha.interm.WriteCopy(rec.Append(scratch[:0])); err != nil {
				return processed
			}
		}
	}
	return processed
}

// fold applies one gathered batch of last-arrival records to the
// weighted tree: single-scope records each count one observed round,
// distributed ones carry a cumulative count whose newest value wins.
// Records of wrappers outside the tree are ignored.
func (lb *LoadBalance) fold(data []byte) {
	const size = analysis.LastArrivalRecordSize
	for off := 0; off+size <= len(data); off += size {
		r, _ := analysis.DecodeLastArrivalRecord(data[off : off+size]) // whole records: cannot be short
		row, ok := lb.rows[r.Node]
		if !ok {
			continue
		}
		if lb.mode == Distributed {
			row.set(int(r.Contributor), r.Count)
		} else {
			row.add(int(r.Contributor), r.Count)
		}
	}
}

// Start launches the monitor's threads: the per-host analysis threads (in
// distributed mode) and the front-end gather thread, which folds each
// gathered batch into the weighted tree itself — so once Stop has halted
// it, everything gathered is folded.
func (lb *LoadBalance) Start() {
	if lb.mode == Distributed {
		hosts := make([]*vnet.Host, len(lb.hosts))
		for i, ha := range lb.hosts {
			hosts[i] = ha.host
		}
		lb.threads.start(hosts, lb.cfg.AnalysisInterval, func(i int, batch *[]byte) int {
			return lb.analysisPass(lb.hosts[i], batch)
		})
	}
	lb.puller = lb.scope.StartPuller(lb.cfg.PullInterval, func(rep paths.Reply) error {
		if lb.scope.Mode() == escope.ModeSummary {
			lb.summarized.Add(1)
		} else {
			lb.fold(rep.Data)
		}
		return nil
	})
}

// Stop halts all monitor threads. It is idempotent and safe to call
// from multiple goroutines: the previous boolean guard raced (both
// callers observe false, both close — the Puller.Stop bug class,
// flagged by the closeonce analyzer), so teardown runs under a
// sync.Once and late callers block until the first finishes.
func (lb *LoadBalance) Stop() {
	lb.stopOnce.Do(func() {
		if lb.puller != nil {
			lb.puller.Stop()
		}
		lb.threads.halt()
		lb.scope.Close()
		lb.release()
	})
}

// release removes the intermediate-result buffers the monitor registered
// on the compute hosts, so a replacement can re-create them under the
// same names.
func (lb *LoadBalance) release() {
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
// scope's breakers observe the new rung on their next decision, and in
// summary-only the gather thread skips the fold and only counts the
// batches (SummarizedBatches).
func (lb *LoadBalance) SetScopeMode(m escope.Mode) { lb.scope.SetMode(m) }

// ScopeMode returns the current degradation-ladder rung.
func (lb *LoadBalance) ScopeMode() escope.Mode { return lb.scope.Mode() }

// SummarizedBatches returns how many gathered batches summary-only mode
// counted instead of folding into the weighted tree.
func (lb *LoadBalance) SummarizedBatches() uint64 { return lb.summarized.Load() }
