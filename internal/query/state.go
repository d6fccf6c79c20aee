// Snapshot/restore for the continuous-query engine. A checkpoint
// captures everything a tick depends on — the retained tuple window,
// the watermark, and each standing query's anchor, streak, and armed
// flags — so a restored engine fed the archive suffix after the
// checkpoint fires exactly the alerts the original engine would have,
// resuming mid-streak. Snapshots are canonical: streaks are stored only
// when nonzero and fired flags only when set, sorted by group, because
// a zero trigger is behaviorally indistinguishable from a missing one.
package query

import (
	"fmt"

	"eventspace/internal/collect"
	"eventspace/internal/hrtime"
)

// GroupStreak is one group's consecutive-true tick count.
type GroupStreak struct {
	Group uint16
	Count int32
}

// StandingState is one standing query's trigger state. Hash identifies
// the statement; restore refuses a state whose statements do not match
// the engine's, in order.
type StandingState struct {
	Hash     uint64
	Anchored bool
	LastTick hrtime.Stamp
	Streak   []GroupStreak // nonzero streaks, sorted by group
	Fired    []uint16      // groups with fired=true, sorted
}

// EngineState is an Engine's portable snapshot.
type EngineState struct {
	Expected  int
	Watermark hrtime.Stamp
	Seq       uint32
	Buf       []collect.TraceTuple // retained data tuples, arrival order
	Alerts    []collect.AlertTuple // alerts fired so far, firing order
	Queries   []StandingState      // registration order
}

// State snapshots the engine.
func (e *Engine) State() EngineState {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := EngineState{Expected: e.expected, Watermark: e.watermark, Seq: e.seq}
	st.Buf = append(st.Buf, e.buf...)
	st.Alerts = append(st.Alerts, e.alerts...)
	for _, q := range e.queries {
		qs := StandingState{Hash: q.hash, Anchored: q.anchored, LastTick: q.lastTick}
		for g, tr := range q.trig {
			if tr.streak != 0 {
				qs.Streak = append(qs.Streak, GroupStreak{Group: uint16(g), Count: int32(tr.streak)})
			}
			if tr.fired {
				qs.Fired = append(qs.Fired, uint16(g))
			}
		}
		st.Queries = append(st.Queries, qs)
	}
	return st
}

// Restore overwrites the engine's evaluation state from a snapshot. The
// engine must already have the same standing statements registered in
// the same order — matched by statement hash — so the snapshot cannot
// be applied to a differently-configured engine.
func (e *Engine) Restore(st EngineState) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(st.Queries) != len(e.queries) {
		return fmt.Errorf("query: state holds %d standing queries, engine has %d", len(st.Queries), len(e.queries))
	}
	for i, qs := range st.Queries {
		if qs.Hash != e.queries[i].hash {
			return fmt.Errorf("query: state query %d hash %#x does not match engine's %#x", i, qs.Hash, e.queries[i].hash)
		}
	}
	e.expected = st.Expected
	e.watermark = st.Watermark
	// The frame has no "saw a tuple" bit: a snapshot with an anchored
	// query, or a watermark off zero, was taken after one.
	e.seeded = st.Watermark != 0
	e.seq = st.Seq
	e.buf = append(e.buf[:0], st.Buf...)
	e.live, e.counted = 0, 0 // prune's memo counted the buffer this replaces
	e.alerts = append(e.alerts[:0], st.Alerts...)
	for i, qs := range st.Queries {
		q := e.queries[i]
		q.anchored = qs.Anchored
		q.lastTick = qs.LastTick
		q.from = 0 // the cursor indexed the buffer this replaces
		e.seeded = e.seeded || qs.Anchored
		clear(q.trig)
		for _, gs := range qs.Streak {
			q.trigger(gs.Group).streak = int(gs.Count)
		}
		for _, g := range qs.Fired {
			q.trigger(g).fired = true
		}
		q.active = q.active[:0]
		for g, tr := range q.trig {
			if tr != (trigger{}) {
				q.active = append(q.active, uint16(g))
			}
		}
	}
	return nil
}
