// Snapshot/restore for the replay shadow. The recovery checkpointer
// keeps a Replay fed with every tuple the archive persists;
// checkpointing snapshots it with these types, and recovery restores it
// and replays only the archive suffix written after the checkpoint. The
// equivalence contract matches analysis/state.go: a restored shadow fed
// the remaining tuples ends in exactly the state a full replay of the
// whole archive produces.
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
	Floor      uint32 // always 0: floors live in the monitor, not the join; kept for the frame layout
	MaxDone    uint32
	Pending    []LBJoinRoundState // live rounds in insertion order
}

// state snapshots the join.
func (j *lbJoin) state() LBJoinState {
	t := j.rounds
	st := LBJoinState{K: t.K(), MaxPending: t.MaxPending(), Lost: t.Lost(), MaxDone: j.maxDone}
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

// LastArrivalState is the last-arrival half of a Replay's portable
// snapshot. The roster is not stored — it derives from the archived
// collector metadata and must be supplied again at restore; a mismatch
// fails the restore so recovery falls back to full replay instead of
// joining wrongly.
type LastArrivalState struct {
	Fed      uint64
	Matched  uint64
	Weighted []WeightedCount
	Joins    []NamedLBJoinState // sorted by node name
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

// StatsState is the statistics half of a Replay's portable snapshot.
type StatsState struct {
	Window  int
	Fed     uint64
	Matched uint64
	Nodes   []StatsNodeState // sorted by NodeID
}

// State snapshots the replay as the pair a checkpoint frame stores.
func (r *Replay) State() (LastArrivalState, StatsState) {
	la := LastArrivalState{Fed: r.fed, Matched: r.contributors, Weighted: weightedCounts(r.weighted)}
	names := make([]string, 0, len(r.joins))
	for name := range r.joins {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		la.Joins = append(la.Joins, NamedLBJoinState{Node: name, Join: r.joins[name].state()})
	}
	st := StatsState{Window: r.window, Fed: r.fed, Matched: r.joined}
	ids := make([]uint32, 0, len(r.nodes))
	for id := range r.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		st.Nodes = append(st.Nodes, r.nodes[id].state(id))
	}
	return la, st
}

// Restore overwrites the replay with a snapshot pair. The pair must be
// one replay's: both halves fed the same tuples, their node sets exactly
// the roster's. A failed restore leaves the replay half-overwritten, so
// the caller drops it.
func (r *Replay) Restore(la LastArrivalState, stats StatsState) error {
	if la.Fed != stats.Fed {
		return fmt.Errorf("monitor: replay state halves were fed %d and %d tuples", la.Fed, stats.Fed)
	}
	if len(la.Joins) != len(r.joins) || len(stats.Nodes) != len(r.nodes) {
		return fmt.Errorf("monitor: replay state has %d joins and %d statistics nodes, the roster %d and %d",
			len(la.Joins), len(stats.Nodes), len(r.joins), len(r.nodes))
	}
	for _, nj := range la.Joins {
		j, ok := r.joins[nj.Node]
		if !ok {
			return fmt.Errorf("monitor: replay state join %q matches no roster node", nj.Node)
		}
		if err := j.restore(nj.Join); err != nil {
			return err
		}
	}
	for i := range stats.Nodes {
		ns := &stats.Nodes[i]
		n, ok := r.nodes[ns.NodeID]
		if !ok {
			return fmt.Errorf("monitor: replay state node %d matches no roster collective", ns.NodeID)
		}
		if err := n.restore(ns); err != nil {
			return err
		}
	}
	for _, row := range r.weighted.nodes {
		clear(row.counts)
	}
	for _, wc := range la.Weighted {
		r.weighted.Add(wc.Node, int(wc.Contributor), wc.Count)
	}
	r.window, r.fed, r.contributors, r.joined = stats.Window, la.Fed, la.Matched, stats.Matched
	return nil
}
