package monitor

import (
	"fmt"

	"eventspace/internal/collect"
)

// This file is the offline half of the monitors: the same joins the live
// load-balance and statistics monitors run, fed from archived trace
// tuples instead of event scopes. Replay is deterministic by
// construction — every computation below is a pure function of the
// tuples' own Seq/Start/End fields, and the joins are keyed by sequence
// number, so feeding the same tuples in any gather order produces the
// same verdicts as the live run (provided no round was evicted on
// either side). No clock is consulted anywhere.

// replayMaxPending is the join eviction bound used offline. Replay is
// not memory-pressured the way a live monitor is, so it is generous:
// evictions would break the determinism contract with the live run.
const replayMaxPending = 4096

// ReplayPort maps one archived contributor event collector onto the
// load-balance join: which node it feeds, as which contributor, and the
// node's fan-in.
type ReplayPort struct {
	Node        string // node name (the weighted-tree key)
	Contributor int    // contributor index on that node
	Fanin       int    // the node's contributor count
}

// portTable maps an ECID to its resolved port — the one lookup a
// replay pays per tuple. It is an open-addressed table filled once, at
// construction, and at most half full: sized by the number of ports,
// whatever the ECIDs are (they come from collectors.meta on disk), and
// probed from a multiplicative hash, which spreads the registry's
// consecutive ids one to a slot.
type portTable[P any] struct {
	slots []portSlot[P] // a power of two long
	shift uint32        // 32 - log2(len(slots))
}

type portSlot[P any] struct {
	ecid uint32
	used bool
	port P
}

func newPortTable[P any](ports int) *portTable[P] {
	size, bits := 2, uint32(1)
	for size < 2*ports {
		size, bits = 2*size, bits+1
	}
	return &portTable[P]{slots: make([]portSlot[P], size), shift: 32 - bits}
}

// slot returns ecid's slot, or the free slot where it would go.
func (t *portTable[P]) slot(ecid uint32) *portSlot[P] {
	for i := int(ecid * 0x9E3779B1 >> t.shift); ; i = (i + 1) & (len(t.slots) - 1) {
		if s := &t.slots[i]; !s.used || s.ecid == ecid {
			return s
		}
	}
}

func (t *portTable[P]) put(ecid uint32, port P) { *t.slot(ecid) = portSlot[P]{ecid, true, port} }

// laPort is a ReplayPort resolved at construction: the tuple's ECID
// leads straight to its node's join and weighted-tree row.
type laPort struct {
	join        *lbJoin
	row         *weightedRow
	contributor int
}

// LastArrivalReplay re-runs the load-balance monitor's last-arrival
// reduction over archived trace tuples. It mirrors the single-scope
// reduce wrapper exactly: per node, rounds join on the tuple sequence
// number and the last arrival is the contributor tuple with the largest
// Start stamp (ties broken toward the higher contributor index).
type LastArrivalReplay struct {
	ports    *portTable[laPort] // contributor ECID -> resolved port
	joins    map[string]*lbJoin // node name -> join, for snapshots
	weighted *WeightedTree

	fed     uint64
	matched uint64
}

// NewLastArrivalReplay builds a replay driver from the contributor-ECID
// port map (see archive.ReplayLastArrival for the wiring from archived
// collector metadata).
func NewLastArrivalReplay(ports map[uint32]ReplayPort) (*LastArrivalReplay, error) {
	r := &LastArrivalReplay{
		ports:    newPortTable[laPort](len(ports)),
		joins:    make(map[string]*lbJoin),
		weighted: NewWeightedTree(),
	}
	for id, p := range ports {
		if p.Fanin < 1 {
			return nil, fmt.Errorf("monitor: replay port %d: fanin %d < 1", id, p.Fanin)
		}
		if p.Contributor < 0 || p.Contributor >= p.Fanin {
			return nil, fmt.Errorf("monitor: replay port %d: contributor %d outside fanin %d", id, p.Contributor, p.Fanin)
		}
		j, ok := r.joins[p.Node]
		if !ok {
			j = newLBJoin(p.Fanin, replayMaxPending)
			r.joins[p.Node] = j
		} else if k := j.rounds.K(); k != p.Fanin {
			return nil, fmt.Errorf("monitor: replay port %d: fanin %d, node %q has %d", id, p.Fanin, p.Node, k)
		}
		r.ports.put(id, laPort{join: j, row: r.weighted.row(p.Node), contributor: p.Contributor})
	}
	return r, nil
}

// Feed offers one archived tuple to the join. Tuples from collectors
// outside the port map (collective wrappers, stub collectors) are
// ignored, exactly as the live reduce ignores unknown ECIDs.
//
//lint:hotpath the checkpointer's last-arrival fold, once per archived tuple
func (r *LastArrivalReplay) Feed(t collect.TraceTuple) {
	r.fed++
	s := r.ports.slot(t.ECID)
	if !s.used {
		return
	}
	r.matched++
	p := &s.port
	if last, done := p.join.add(p.contributor, t); done {
		p.row.add(last, 1)
	}
}

// Weighted returns the reconstructed weighted tree. Compare it (e.g.
// via viz.WeightedTree) against the live monitor's Weighted() output.
func (r *LastArrivalReplay) Weighted() *WeightedTree { return r.weighted }

// LoadBalanceResume is the state handoff for a front-end failover: the
// weighted tree reconstructed from the dead front-end's sealed archive,
// plus per-node join floors (the highest round each node completed) so
// the replacement monitor never double-counts a finished round.
type LoadBalanceResume struct {
	Weighted *WeightedTree
	Floors   map[string]uint32 // node name -> highest completed Seq
	// ReRead makes the replacement monitor's source readers start at the
	// beginning of the retained trace windows instead of after the
	// newest tuple. Checkpointed recovery sets it: tuples the dead
	// front end gathered but the checkpoint+suffix already covers are
	// blocked by the per-node floors (joins ignore Seq <= floor, and
	// identical re-fed contributor tuples are idempotent), so re-reading
	// closes the gather gap without double-counting a finished round.
	ReRead bool
}

// Resume snapshots the replay into a handoff a replacement load-balance
// monitor can be seeded from (NewLoadBalanceFrom). Call it after feeding
// the sealed archive completely; Lost() must be zero for the handoff to
// be faithful.
func (r *LastArrivalReplay) Resume() *LoadBalanceResume {
	res := &LoadBalanceResume{Weighted: NewWeightedTree(), Floors: make(map[string]uint32)}
	for _, node := range r.weighted.Nodes() {
		for c, n := range r.weighted.Counts(node) {
			res.Weighted.Add(node, c, n)
		}
	}
	for node, j := range r.joins {
		if j.maxDone > 0 {
			res.Floors[node] = j.maxDone
		}
	}
	return res
}

// Fed returns how many tuples were offered and how many belonged to a
// known contributor collector.
func (r *LastArrivalReplay) Fed() (fed, matched uint64) { return r.fed, r.matched }

// Lost sums rounds evicted from the replay joins — nonzero means the
// determinism contract with the live run is void for this replay.
func (r *LastArrivalReplay) Lost() uint64 {
	var n uint64
	for _, j := range r.joins {
		n += j.rounds.Lost()
	}
	return n
}

// ReplayStatsPort maps one archived event collector onto the statistics
// join: which node's round it belongs to and as what.
type ReplayStatsPort struct {
	NodeID      uint32 // the node's collective EC id (the stats-record key)
	Contributor int    // contributor index, or -1 for the collective tuple
	Fanin       int    // the node's contributor count
}

// statsPort is a ReplayStatsPort resolved at construction.
type statsPort struct {
	node        *wrapperStats
	contributor int // -1 for the collective tuple
}

// StatsReplay re-runs statsm's wrapper-statistics computation over
// archived trace tuples: per-node round joins and the five latency
// streams (down, up, total, arrival wait, departure wait) in
// microseconds.
type StatsReplay struct {
	ports  *portTable[statsPort]    // ECID -> resolved port
	nodes  map[uint32]*wrapperStats // keyed by NodeID, for snapshots
	window int                      // sliding-median window, kept for snapshots

	fed     uint64
	matched uint64
}

// NewStatsReplay builds a statistics replay driver from the ECID port
// map. window is the sliding median window (values < 1 use the
// analysis default).
func NewStatsReplay(ports map[uint32]ReplayStatsPort, window int) (*StatsReplay, error) {
	r := &StatsReplay{
		ports:  newPortTable[statsPort](len(ports)),
		nodes:  make(map[uint32]*wrapperStats),
		window: window,
	}
	for id, p := range ports {
		if p.Fanin < 1 {
			return nil, fmt.Errorf("monitor: stats replay port %d: fanin %d < 1", id, p.Fanin)
		}
		if p.Contributor >= p.Fanin {
			return nil, fmt.Errorf("monitor: stats replay port %d: contributor %d outside fanin %d", id, p.Contributor, p.Fanin)
		}
		st, ok := r.nodes[p.NodeID]
		if !ok {
			st = new(wrapperStats)
			if err := st.build(p.Fanin, replayMaxPending, window, st.fold); err != nil {
				return nil, err
			}
			r.nodes[p.NodeID] = st
		} else if k := st.joiner.K(); k != p.Fanin {
			return nil, fmt.Errorf("monitor: stats replay port %d: fanin %d, node %d has %d", id, p.Fanin, p.NodeID, k)
		}
		r.ports.put(id, statsPort{node: st, contributor: p.Contributor})
	}
	return r, nil
}

// Feed offers one archived tuple to the statistics join.
//
//lint:hotpath the checkpointer's statistics fold, once per archived tuple
func (r *StatsReplay) Feed(t collect.TraceTuple) {
	r.fed++
	s := r.ports.slot(t.ECID)
	if !s.used {
		return
	}
	r.matched++
	p := &s.port
	if p.contributor < 0 {
		p.node.joiner.AddCollective(t)
	} else {
		p.node.joiner.AddContributor(p.contributor, t)
	}
}

// Tree materializes the reconstructed analysis tree: the five wrapper
// statistics per node, as statsm would have published them.
func (r *StatsReplay) Tree() *AnalysisTree {
	at := NewAnalysisTree()
	for id, st := range r.nodes {
		if st.rounds == 0 {
			continue
		}
		for _, rec := range st.records(id) {
			at.Update(rec)
		}
	}
	return at
}

// RoundsAnalyzed sums completed rounds over all nodes.
func (r *StatsReplay) RoundsAnalyzed() uint64 {
	var n uint64
	for _, st := range r.nodes {
		n += st.rounds
	}
	return n
}

// Fed returns how many tuples were offered and how many belonged to a
// known collector.
func (r *StatsReplay) Fed() (fed, matched uint64) { return r.fed, r.matched }
