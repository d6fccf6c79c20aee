// Snapshot/restore for the streaming-analysis state. The recovery
// checkpointer (internal/checkpoint) persists the statistics monitor's
// shadow state so a failed front end can resume from the last
// checkpoint plus a short archive suffix instead of a full replay. The
// contract here is behavioral equivalence, not bit-copying internals: a
// restored Stream or Joiner fed the same future samples produces
// exactly the output the original would have — that is what makes
// checkpointed recovery byte-identical to full replay.
package analysis

import (
	"fmt"

	"eventspace/internal/collect"
)

// StreamState is a Stream's portable snapshot. The ring is stored
// oldest-first, so the state is canonical: two streams that saw the
// same samples snapshot identically regardless of internal head
// position.
type StreamState struct {
	N      uint64
	Mean   float64
	M2     float64
	Min    float64
	Max    float64
	Window int
	Ring   []float64 // last min(N, Window) samples, oldest first
}

// State snapshots the stream.
func (s *Stream) State() StreamState {
	st := StreamState{
		N: s.n, Mean: s.mean, M2: s.m2, Min: s.min, Max: s.max,
		Window: s.window,
	}
	if len(s.ring) == 0 {
		return st
	}
	// Oldest first: from head (0 until the ring has filled) around.
	st.Ring = make([]float64, 0, len(s.ring))
	st.Ring = append(st.Ring, s.ring[s.head:]...)
	st.Ring = append(st.Ring, s.ring[:s.head]...)
	return st
}

// NewStreamFrom rebuilds a stream from a snapshot. The restored stream
// is behaviorally identical to the snapshotted one: same statistics
// now, same outputs for any future sample sequence.
func NewStreamFrom(st StreamState) (*Stream, error) {
	window := st.Window
	if window < 1 {
		window = DefaultMedianWindow
	}
	if len(st.Ring) > window {
		return nil, fmt.Errorf("analysis: stream state ring %d exceeds window %d", len(st.Ring), window)
	}
	if uint64(len(st.Ring)) > st.N {
		return nil, fmt.Errorf("analysis: stream state ring %d exceeds sample count %d", len(st.Ring), st.N)
	}
	if window > MaxMedianWindow {
		return nil, fmt.Errorf("analysis: stream state window %d exceeds %d", window, MaxMedianWindow)
	}
	s := NewStream(window)
	s.n, s.mean, s.m2, s.min, s.max = st.N, st.Mean, st.M2, st.Min, st.Max
	// Oldest-first with head 0 reproduces the original eviction order:
	// the next insertion after the window fills replaces index 0.
	s.ring = append(s.ring, st.Ring...)
	return s, nil
}

// ContribState is one contributor tuple buffered in a partial round.
type ContribState struct {
	ID    int32
	Tuple collect.TraceTuple
}

// RoundState is one partial round buffered in a Joiner.
type RoundState struct {
	Seq        uint32
	Collective collect.TraceTuple
	HaveColl   bool
	Contribs   []ContribState // sorted by contributor id
}

// JoinerState is a Joiner's portable snapshot: configuration, loss
// count, and the live partial rounds in insertion order — the order
// they will be evicted in. Nothing else about the joiner's past is in
// it, so the state is canonical.
type JoinerState struct {
	K          int
	MaxPending int
	Lost       uint64
	Pending    []RoundState
}

// State snapshots the joiner.
func (j *Joiner) State() JoinerState {
	t := j.rounds
	st := JoinerState{K: t.K(), MaxPending: t.MaxPending(), Lost: t.Lost()}
	for r := t.Oldest(); r != nil; r = r.Next() {
		st.Pending = append(st.Pending, RoundState{
			Seq: r.Seq, Collective: r.Collective, HaveColl: r.HaveColl,
			Contribs: r.ContribStates(),
		})
	}
	return st
}

// Restore overwrites the joiner's buffered state from a snapshot while
// keeping its emit hook. The snapshot's k must match the joiner's, and
// its rounds must fit the joiner's slots (see Rounds.Load).
func (j *Joiner) Restore(st JoinerState) error {
	if st.K != j.rounds.K() {
		return fmt.Errorf("analysis: joiner state k=%d, joiner has k=%d", st.K, j.rounds.K())
	}
	j.rounds.Reset(st.MaxPending, st.Lost)
	for _, rs := range st.Pending {
		r, err := j.rounds.Load(rs.Seq, rs.Contribs)
		if err != nil {
			return err
		}
		r.Collective, r.HaveColl = rs.Collective, rs.HaveColl
	}
	return nil
}
