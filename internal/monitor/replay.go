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

// ReplayNode is one tree node of an archived collector roster: the
// collectors whose tuples the front end's joins take.
type ReplayNode struct {
	Name          string   // node name: the last-arrival join and weighted-tree key
	Contributors  []uint32 // contributor collectors' ECIDs, by contributor index
	Collective    uint32   // the collective collector's ECID: the statistics key
	HasCollective bool     // without one the node has no statistics join
}

// replayPort is what one ECID resolves to: the joins of its node that
// take its tuples. A contributor feeds the last-arrival join and, when
// its node has a collective collector, the statistics join; the
// collective feeds the statistics join alone.
type replayPort struct {
	join        *lbJoin       // nil for the collective collector
	row         *weightedRow  // the join's weighted-tree row
	stats       *wrapperStats // nil when the node has no collective collector
	contributor int           // -1 for the collective collector
}

// portTable maps an ECID to its resolved port — the one lookup a
// replay pays per tuple. It is an open-addressed table filled once, at
// construction, and at most half full: sized by the number of ports,
// whatever the ECIDs are (they come from collectors.meta on disk), and
// probed from a multiplicative hash, which spreads the registry's
// consecutive ids one to a slot.
type portTable struct {
	slots []portSlot // a power of two long
	shift uint32     // 32 - log2(len(slots))
}

type portSlot struct {
	ecid uint32
	used bool
	port replayPort
}

func newPortTable(ports int) *portTable {
	size, bits := 2, uint32(1)
	for size < 2*ports {
		size, bits = 2*size, bits+1
	}
	return &portTable{slots: make([]portSlot, size), shift: 32 - bits}
}

// slot returns ecid's slot, or the free slot where it would go.
func (t *portTable) slot(ecid uint32) *portSlot {
	for i := int(ecid * 0x9E3779B1 >> t.shift); ; i = (i + 1) & (len(t.slots) - 1) {
		if s := &t.slots[i]; !s.used || s.ecid == ecid {
			return s
		}
	}
}

// put gives ecid its port; an ECID has one.
func (t *portTable) put(ecid uint32, port replayPort) error {
	s := t.slot(ecid)
	if s.used {
		return fmt.Errorf("monitor: replay roster lists ECID %d twice", ecid)
	}
	*s = portSlot{ecid, true, port}
	return nil
}

// Replay re-runs the front end's two reductions over archived trace
// tuples from one feed: the load-balance monitor's last-arrival join
// into a weighted tree, and statsm's wrapper statistics — per-node round
// joins and the five latency streams (down, up, total, arrival wait,
// departure wait) in microseconds — into an analysis tree. A tuple's ECID
// is looked up once and the tuple goes to every join of its node that
// takes it. The last-arrival half mirrors the single-scope reduce
// wrapper exactly: per node, rounds join on the tuple sequence number and
// the last arrival is the contributor tuple with the largest Start stamp
// (ties broken toward the higher contributor index).
type Replay struct {
	ports    *portTable
	joins    map[string]*lbJoin       // node name -> last-arrival join, for snapshots
	nodes    map[uint32]*wrapperStats // collective ECID -> statistics, for snapshots
	weighted *WeightedTree
	window   int // sliding-median window, kept for snapshots

	fed          uint64
	contributors uint64 // tuples a last-arrival join took
	joined       uint64 // tuples a statistics join took
}

// NewReplay builds a replay over a collector roster (see
// archive.NewReplay for the roster archived collector metadata gives).
// window is the sliding median window (values < 1 use the analysis
// default). A node without contributors, and a node name or an ECID
// listed twice, are refused.
func NewReplay(roster []ReplayNode, window int) (*Replay, error) {
	ports := 0
	for _, n := range roster {
		ports += len(n.Contributors) + 1
	}
	r := &Replay{
		ports:    newPortTable(ports),
		joins:    make(map[string]*lbJoin),
		nodes:    make(map[uint32]*wrapperStats),
		weighted: NewWeightedTree(),
		window:   window,
	}
	for _, n := range roster {
		k := len(n.Contributors)
		if k == 0 {
			return nil, fmt.Errorf("monitor: replay node %q has no contributors", n.Name)
		}
		if _, dup := r.joins[n.Name]; dup {
			return nil, fmt.Errorf("monitor: replay roster lists node %q twice", n.Name)
		}
		join := newLBJoin(k, replayMaxPending)
		r.joins[n.Name] = join
		var st *wrapperStats
		if n.HasCollective {
			st = new(wrapperStats)
			if err := st.build(k, replayMaxPending, window, st.fold); err != nil {
				return nil, err
			}
			if err := r.ports.put(n.Collective, replayPort{stats: st, contributor: -1}); err != nil {
				return nil, err
			}
			r.nodes[n.Collective] = st
		}
		row := r.weighted.row(n.Name)
		for c, id := range n.Contributors {
			if err := r.ports.put(id, replayPort{join: join, row: row, stats: st, contributor: c}); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// Feed offers one archived tuple to its node's joins. Tuples from
// collectors outside the roster (stub collectors, control tuples) are
// ignored, exactly as the live reduce ignores unknown ECIDs.
//
//lint:hotpath the checkpointer's fold, once per archived tuple
func (r *Replay) Feed(t collect.TraceTuple) {
	r.fed++
	s := r.ports.slot(t.ECID)
	if !s.used {
		return
	}
	p := &s.port
	if p.join != nil {
		r.contributors++
		if last, done := p.join.add(p.contributor, t); done {
			p.row.add(last, 1)
		}
	}
	if p.stats != nil {
		r.joined++
		if p.contributor < 0 {
			p.stats.joiner.AddCollective(t)
		} else {
			p.stats.joiner.AddContributor(p.contributor, t)
		}
	}
}

// Weighted returns the reconstructed weighted tree. Compare it (e.g.
// via viz.WeightedTree) against the live monitor's Weighted() output.
func (r *Replay) Weighted() *WeightedTree { return r.weighted }

// LoadBalanceResume is the state handoff for a front-end recovery: the
// weighted tree reconstructed from the dead front end's archive, plus
// per-node join floors (the highest round each node completed). A
// replacement monitor seeded with it re-reads the retained trace
// windows and its joins ignore Seq <= floor, so a finished round is
// never counted twice and a round half-joined at the handoff is
// completed from the re-read tuples.
type LoadBalanceResume struct {
	Weighted *WeightedTree
	// Floors maps a node name to the highest Seq it completed. Every
	// node that completed a round has one, 0 included (collectors number
	// rounds from 0); a node without one completed none.
	Floors map[string]uint32
}

// Resume snapshots the replay into a handoff a replacement load-balance
// monitor can be seeded from (NewLoadBalance). Call it after feeding
// the sealed archive completely; Lost() must be zero for the handoff to
// be faithful.
func (r *Replay) Resume() *LoadBalanceResume {
	res := &LoadBalanceResume{Weighted: NewWeightedTree(), Floors: make(map[string]uint32)}
	for _, node := range r.weighted.Nodes() {
		for c, n := range r.weighted.Counts(node) {
			res.Weighted.Add(node, c, n)
		}
		// Only a completed round adds to a row, so a node in the tree
		// completed one, and its maxDone is a floor even when it is 0.
		if j, ok := r.joins[node]; ok {
			res.Floors[node] = j.maxDone
		}
	}
	return res
}

// Fed returns how many tuples were offered, how many of them a
// last-arrival join took (contributor tuples) and how many a statistics
// join took (contributor and collective tuples of nodes with a
// collective collector).
func (r *Replay) Fed() (fed, contributors, joined uint64) {
	return r.fed, r.contributors, r.joined
}

// Lost sums rounds evicted from the last-arrival joins — nonzero means
// the determinism contract with the live run is void for this replay.
func (r *Replay) Lost() uint64 {
	var n uint64
	for _, j := range r.joins {
		n += j.rounds.Lost()
	}
	return n
}

// Tree materializes the reconstructed analysis tree: the five wrapper
// statistics per node, as statsm would have published them.
func (r *Replay) Tree() *AnalysisTree {
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

// RoundsAnalyzed sums the rounds the statistics joins completed.
func (r *Replay) RoundsAnalyzed() uint64 {
	var n uint64
	for _, st := range r.nodes {
		n += st.rounds
	}
	return n
}
