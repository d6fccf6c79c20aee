package monitor

import (
	"fmt"
	"sort"

	"eventspace/internal/collect"
)

// This file keeps the pair of replays Replay merged, as they were: a
// last-arrival replay and a statistics replay, each with its own port
// map derived by its own roster walk, each probing its own ports for
// every tuple. TestReplayMatchesReference holds Replay to them.

// refLAPort maps one contributor collector onto the last-arrival join.
type refLAPort struct {
	join        *lbJoin
	row         *weightedRow
	contributor int
}

// refLastArrival is the last-arrival half: contributor ports only.
type refLastArrival struct {
	ports    map[uint32]refLAPort
	joins    map[string]*lbJoin
	weighted *WeightedTree

	fed, matched uint64
}

// refStatsPort maps one collector onto the statistics join.
type refStatsPort struct {
	node        *wrapperStats
	contributor int // -1 for the collective tuple
}

// refStats is the statistics half: the ports of nodes with a collective
// collector, keyed by its ECID.
type refStats struct {
	ports  map[uint32]refStatsPort
	nodes  map[uint32]*wrapperStats
	window int

	fed, matched uint64
}

// newRefLastArrival is the last-arrival roster walk: every contributor
// becomes a port onto its node's join.
func newRefLastArrival(roster []ReplayNode) (*refLastArrival, error) {
	r := &refLastArrival{ports: make(map[uint32]refLAPort), joins: make(map[string]*lbJoin), weighted: NewWeightedTree()}
	for _, n := range roster {
		if len(n.Contributors) == 0 {
			return nil, fmt.Errorf("node %q: fanin 0", n.Name)
		}
		j := newLBJoin(len(n.Contributors), replayMaxPending)
		r.joins[n.Name] = j
		for c, id := range n.Contributors {
			r.ports[id] = refLAPort{join: j, row: r.weighted.row(n.Name), contributor: c}
		}
	}
	return r, nil
}

func (r *refLastArrival) Feed(t collect.TraceTuple) {
	r.fed++
	p, ok := r.ports[t.ECID]
	if !ok {
		return
	}
	r.matched++
	if last, done := p.join.add(p.contributor, t); done {
		p.row.add(last, 1)
	}
}

func (r *refLastArrival) state() LastArrivalState {
	st := LastArrivalState{Fed: r.fed, Matched: r.matched, Weighted: weightedCounts(r.weighted)}
	names := make([]string, 0, len(r.joins))
	for name := range r.joins {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st.Joins = append(st.Joins, NamedLBJoinState{Node: name, Join: r.joins[name].state()})
	}
	return st
}

// newRefLastArrivalFrom rebuilds the half from its roster and snapshot.
func newRefLastArrivalFrom(roster []ReplayNode, st LastArrivalState) (*refLastArrival, error) {
	r, err := newRefLastArrival(roster)
	if err != nil {
		return nil, err
	}
	if len(st.Joins) != len(r.joins) {
		return nil, fmt.Errorf("state has %d joins, ports define %d nodes", len(st.Joins), len(r.joins))
	}
	for _, nj := range st.Joins {
		j, ok := r.joins[nj.Node]
		if !ok {
			return nil, fmt.Errorf("state join %q matches no port node", nj.Node)
		}
		if err := j.restore(nj.Join); err != nil {
			return nil, err
		}
	}
	for _, wc := range st.Weighted {
		r.weighted.Add(wc.Node, int(wc.Contributor), wc.Count)
	}
	r.fed, r.matched = st.Fed, st.Matched
	return r, nil
}

// newRefStats is the statistics roster walk: a node with a collective
// collector gets a join keyed by that collector's ECID, fed by its
// contributors and its collective.
func newRefStats(roster []ReplayNode, window int) (*refStats, error) {
	r := &refStats{ports: make(map[uint32]refStatsPort), nodes: make(map[uint32]*wrapperStats), window: window}
	for _, n := range roster {
		if !n.HasCollective {
			continue
		}
		st := new(wrapperStats)
		if err := st.build(len(n.Contributors), replayMaxPending, window, st.fold); err != nil {
			return nil, err
		}
		r.nodes[n.Collective] = st
		r.ports[n.Collective] = refStatsPort{node: st, contributor: -1}
		for c, id := range n.Contributors {
			r.ports[id] = refStatsPort{node: st, contributor: c}
		}
	}
	return r, nil
}

func (r *refStats) Feed(t collect.TraceTuple) {
	r.fed++
	p, ok := r.ports[t.ECID]
	if !ok {
		return
	}
	r.matched++
	if p.contributor < 0 {
		p.node.joiner.AddCollective(t)
	} else {
		p.node.joiner.AddContributor(p.contributor, t)
	}
}

func (r *refStats) state() StatsState {
	st := StatsState{Window: r.window, Fed: r.fed, Matched: r.matched}
	ids := make([]uint32, 0, len(r.nodes))
	for id := range r.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		st.Nodes = append(st.Nodes, r.nodes[id].state(id))
	}
	return st
}

// newRefStatsFrom rebuilds the half from its roster and snapshot.
func newRefStatsFrom(roster []ReplayNode, st StatsState) (*refStats, error) {
	r, err := newRefStats(roster, st.Window)
	if err != nil {
		return nil, err
	}
	if len(st.Nodes) != len(r.nodes) {
		return nil, fmt.Errorf("stats state has %d nodes, ports define %d", len(st.Nodes), len(r.nodes))
	}
	for i := range st.Nodes {
		ns := &st.Nodes[i]
		n, ok := r.nodes[ns.NodeID]
		if !ok {
			return nil, fmt.Errorf("stats state node %d matches no port", ns.NodeID)
		}
		if err := n.restore(ns); err != nil {
			return nil, err
		}
	}
	r.fed, r.matched = st.Fed, st.Matched
	return r, nil
}

// refReplay drives the reference pair the way the checkpointer and the
// recovery ladder drove it: both halves fed every tuple, snapshotted
// side by side and restored side by side.
type refReplay struct {
	roster []ReplayNode
	la     *refLastArrival
	st     *refStats
}

// newRefReplay builds the reference pair over a roster.
func newRefReplay(roster []ReplayNode, window int) (*refReplay, error) {
	la, err := newRefLastArrival(roster)
	if err != nil {
		return nil, err
	}
	st, err := newRefStats(roster, window)
	if err != nil {
		return nil, err
	}
	return &refReplay{roster: roster, la: la, st: st}, nil
}

func (r *refReplay) Feed(t collect.TraceTuple) {
	r.la.Feed(t)
	r.st.Feed(t)
}

func (r *refReplay) State() (LastArrivalState, StatsState) { return r.la.state(), r.st.state() }

// Restore rebuilds both halves from a snapshot pair.
func (r *refReplay) Restore(la LastArrivalState, st StatsState) error {
	l, err := newRefLastArrivalFrom(r.roster, la)
	if err != nil {
		return err
	}
	s, err := newRefStatsFrom(r.roster, st)
	if err != nil {
		return err
	}
	r.la, r.st = l, s
	return nil
}

func (r *refReplay) Weighted() *WeightedTree { return r.la.weighted }

func (r *refReplay) Resume() *LoadBalanceResume {
	res := &LoadBalanceResume{Weighted: NewWeightedTree(), Floors: make(map[string]uint32)}
	for _, node := range r.la.weighted.Nodes() {
		for c, n := range r.la.weighted.Counts(node) {
			res.Weighted.Add(node, c, n)
		}
	}
	for node, j := range r.la.joins {
		if len(r.la.weighted.Counts(node)) > 0 {
			res.Floors[node] = j.maxDone
		}
	}
	return res
}

func (r *refReplay) Lost() uint64 {
	var n uint64
	for _, j := range r.la.joins {
		n += j.rounds.Lost()
	}
	return n
}

func (r *refReplay) Tree() *AnalysisTree {
	at := NewAnalysisTree()
	for id, st := range r.st.nodes {
		if st.rounds == 0 {
			continue
		}
		for _, rec := range st.records(id) {
			at.Update(rec)
		}
	}
	return at
}

func (r *refReplay) RoundsAnalyzed() uint64 {
	var n uint64
	for _, st := range r.st.nodes {
		n += st.rounds
	}
	return n
}

// Fed reports each half's counts as Replay.Fed does: the halves are fed
// the same tuples, so one fed count serves both.
func (r *refReplay) Fed() (fed, contributors, joined uint64) {
	return r.la.fed, r.la.matched, r.st.matched
}
