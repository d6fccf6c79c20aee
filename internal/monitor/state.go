// Snapshot/restore for the replay shadows. The recovery checkpointer
// keeps a LastArrivalReplay and a StatsReplay fed with every tuple the
// archive persists; checkpointing snapshots them with these types, and
// recovery restores them and replays only the archive suffix written
// after the checkpoint. The equivalence contract matches
// analysis/state.go: a restored shadow fed the remaining tuples ends in
// exactly the state a full replay of the whole archive produces.
package monitor

import (
	"fmt"
	"sort"

	"eventspace/internal/analysis"
)

// LBJoinRoundState is one partial load-balance round.
type LBJoinRoundState struct {
	Seq      uint32
	Contribs []analysis.ContribState // sorted by contributor id
}

// LBJoinState is one node's last-arrival join state.
type LBJoinState struct {
	K          int
	MaxPending int
	Lost       uint64
	Floor      uint32
	MaxDone    uint32
	Pending    []LBJoinRoundState // live rounds in insertion order
}

// state snapshots the join.
func (j *lbJoin) state() LBJoinState {
	t := j.rounds
	st := LBJoinState{K: t.K(), MaxPending: t.MaxPending(), Lost: t.Lost(), Floor: j.floor, MaxDone: j.maxDone}
	for r := t.Oldest(); r != nil; r = r.Next() {
		st.Pending = append(st.Pending, LBJoinRoundState{Seq: r.Seq, Contribs: r.ContribStates()})
	}
	return st
}

// restore overwrites the join with the snapshotted state, which must
// fit the join's slots (see analysis.Rounds.Load).
func (j *lbJoin) restore(st LBJoinState) error {
	if st.K != j.rounds.K() {
		return fmt.Errorf("monitor: join state k=%d, join has k=%d", st.K, j.rounds.K())
	}
	j.rounds.Reset(st.MaxPending, st.Lost)
	j.floor = st.Floor
	j.maxDone = st.MaxDone
	for _, rs := range st.Pending {
		if _, err := j.rounds.Load(rs.Seq, rs.Contribs); err != nil {
			return err
		}
	}
	return nil
}

// WeightedCount is one (node, contributor) cell of a weighted tree.
type WeightedCount struct {
	Node        string
	Contributor int32
	Count       uint64
}

// weightedCounts flattens a tree into sorted cells, the canonical form
// checkpoints encode.
func weightedCounts(w *WeightedTree) []WeightedCount {
	var out []WeightedCount
	for _, node := range w.Nodes() {
		for c, n := range w.Counts(node) {
			out = append(out, WeightedCount{Node: node, Contributor: int32(c), Count: n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Contributor < out[j].Contributor
	})
	return out
}

// NamedLBJoinState pairs a node name with its join state.
type NamedLBJoinState struct {
	Node string
	Join LBJoinState
}

// LastArrivalState is a LastArrivalReplay's portable snapshot. The port
// map is not stored — it derives from the archived collector metadata
// and must be supplied again at restore; a mismatch fails the restore
// so recovery falls back to full replay instead of joining wrongly.
type LastArrivalState struct {
	Fed      uint64
	Matched  uint64
	Weighted []WeightedCount
	Joins    []NamedLBJoinState // sorted by node name
}

// State snapshots the replay.
func (r *LastArrivalReplay) State() LastArrivalState {
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

// NewLastArrivalReplayFrom rebuilds a replay from ports and a snapshot.
// The snapshot's join set must match the ports' node set exactly.
func NewLastArrivalReplayFrom(ports map[uint32]ReplayPort, st LastArrivalState) (*LastArrivalReplay, error) {
	r, err := NewLastArrivalReplay(ports)
	if err != nil {
		return nil, err
	}
	if len(st.Joins) != len(r.joins) {
		return nil, fmt.Errorf("monitor: replay state has %d joins, ports define %d nodes", len(st.Joins), len(r.joins))
	}
	for _, nj := range st.Joins {
		j, ok := r.joins[nj.Node]
		if !ok {
			return nil, fmt.Errorf("monitor: replay state join %q matches no port node", nj.Node)
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

// StatsNodeState is one node's statistics-replay state.
type StatsNodeState struct {
	NodeID  uint32
	Rounds  uint64
	Joiner  analysis.JoinerState
	Down    analysis.StreamState
	Up      analysis.StreamState
	Total   analysis.StreamState
	ArrWait analysis.StreamState
	DepWait analysis.StreamState
}

// streams lists the node's stream states in kind order.
func (ns *StatsNodeState) streams() [wrapperKinds]*analysis.StreamState {
	return [...]*analysis.StreamState{&ns.Down, &ns.Up, &ns.Total, &ns.ArrWait, &ns.DepWait}
}

// StatsState is a StatsReplay's portable snapshot.
type StatsState struct {
	Window  int
	Fed     uint64
	Matched uint64
	Nodes   []StatsNodeState // sorted by NodeID
}

// State snapshots the replay.
func (r *StatsReplay) State() StatsState {
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

// NewStatsReplayFrom rebuilds a statistics replay from ports and a
// snapshot. The snapshot's node set must match the ports' exactly.
func NewStatsReplayFrom(ports map[uint32]ReplayStatsPort, st StatsState) (*StatsReplay, error) {
	r, err := NewStatsReplay(ports, st.Window)
	if err != nil {
		return nil, err
	}
	if len(st.Nodes) != len(r.nodes) {
		return nil, fmt.Errorf("monitor: stats state has %d nodes, ports define %d", len(st.Nodes), len(r.nodes))
	}
	for i := range st.Nodes {
		ns := &st.Nodes[i]
		n, ok := r.nodes[ns.NodeID]
		if !ok {
			return nil, fmt.Errorf("monitor: stats state node %d matches no port", ns.NodeID)
		}
		if err := n.restore(ns); err != nil {
			return nil, err
		}
	}
	r.fed, r.matched = st.Fed, st.Matched
	return r, nil
}
