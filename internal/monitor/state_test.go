package monitor

import (
	"math/rand"
	"reflect"
	"testing"

	"eventspace/internal/analysis"
	"eventspace/internal/collect"
	"eventspace/internal/pastset"
	"eventspace/internal/paths"
)

// replayStream fabricates a tuple stream over two 3-fanin nodes with a
// collective collector each, shuffled within a small horizon so rounds
// interleave and some are always pending mid-stream.
func replayStream(t *testing.T, rounds int) ([]ReplayNode, []collect.TraceTuple) {
	t.Helper()
	roster := []ReplayNode{
		{Name: "a", Contributors: []uint32{1, 2, 3}, Collective: 10, HasCollective: true},
		{Name: "b", Contributors: []uint32{4, 5, 6}, Collective: 20, HasCollective: true},
	}
	rng := rand.New(rand.NewSource(3))
	var tuples []collect.TraceTuple
	for seq := uint32(1); seq <= uint32(rounds); seq++ {
		base := int64(10_000 + 1000*int64(seq))
		for node, ecids := range map[uint32][]uint32{10: {1, 2, 3}, 20: {4, 5, 6}} {
			tuples = append(tuples, collect.TraceTuple{
				ECID: node, Op: paths.OpWrite, Seq: seq,
				Start: base + 100, End: base + 200,
			})
			for i, id := range ecids {
				jit := rng.Int63n(90)
				tuples = append(tuples, collect.TraceTuple{
					ECID: id, Op: paths.OpWrite, Seq: seq,
					Start: base + jit + int64(i), End: base + 300 + jit,
				})
			}
		}
	}
	rng.Shuffle(len(tuples), func(i, j int) {
		if d := i - j; d < 10 && d > -10 {
			tuples[i], tuples[j] = tuples[j], tuples[i]
		}
	})
	return roster, tuples
}

func newTestReplay(t *testing.T, roster []ReplayNode, window int, tuples []collect.TraceTuple) *Replay {
	t.Helper()
	r, err := NewReplay(roster, window)
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range tuples {
		r.Feed(tu)
	}
	return r
}

// splitReplay snapshots a replay of tuples[:split], restores the
// snapshot into a fresh replay over the same roster and feeds it the
// suffix. It returns that replay and a straight-through one.
func splitReplay(t *testing.T, roster []ReplayNode, tuples []collect.TraceTuple, split int) (full, tail *Replay) {
	t.Helper()
	if split > len(tuples) {
		t.Fatalf("split %d past the stream's %d tuples", split, len(tuples))
	}
	full = newTestReplay(t, roster, 32, tuples)
	la, stats := newTestReplay(t, roster, 32, tuples[:split]).State()
	tail = newTestReplay(t, roster, 0, nil)
	if err := tail.Restore(la, stats); err != nil {
		t.Fatalf("split %d: %v", split, err)
	}
	for _, tu := range tuples[split:] {
		tail.Feed(tu)
	}
	return full, tail
}

// TestLastArrivalReplaySplitEquivalence is the checkpoint contract for
// the load-balance half of the shadow: snapshot mid-stream, restore,
// feed the suffix — the last-arrival state, floors, and counters match
// a straight-through replay exactly.
func TestLastArrivalReplaySplitEquivalence(t *testing.T) {
	roster, tuples := replayStream(t, 50)
	for _, split := range []int{0, 13, 101, 250, len(tuples)} {
		full, tail := splitReplay(t, roster, tuples, split)
		fullLA, _ := full.State()
		if tailLA, _ := tail.State(); !reflect.DeepEqual(tailLA, fullLA) {
			t.Fatalf("split %d: restored replay state diverged from straight-through", split)
		}
		if got, want := tail.Resume().Floors, full.Resume().Floors; !reflect.DeepEqual(got, want) {
			t.Fatalf("split %d: floors %v, want %v", split, got, want)
		}
		if tail.Lost() != full.Lost() {
			t.Fatalf("split %d: lost %d, want %d", split, tail.Lost(), full.Lost())
		}
	}
}

// TestStatsReplaySplitEquivalence is the same contract for the
// statistics half: the reconstructed analysis tree and every counter
// match a straight-through replay after any split.
func TestStatsReplaySplitEquivalence(t *testing.T) {
	roster, tuples := replayStream(t, 50)
	kinds := []int{analysis.KindDown, analysis.KindUp, analysis.KindTotal, analysis.KindArrivalWait, analysis.KindDepartureWait}
	for _, split := range []int{0, 27, 199, len(tuples)} {
		full, tail := splitReplay(t, roster, tuples, split)
		_, fullStats := full.State()
		if _, tailStats := tail.State(); !reflect.DeepEqual(tailStats, fullStats) {
			t.Fatalf("split %d: restored stats state diverged from straight-through", split)
		}
		if tail.RoundsAnalyzed() != full.RoundsAnalyzed() {
			t.Fatalf("split %d: rounds %d, want %d", split, tail.RoundsAnalyzed(), full.RoundsAnalyzed())
		}
		fullTree, tailTree := full.Tree(), tail.Tree()
		for _, id := range []uint32{10, 20} {
			for _, kind := range kinds {
				want, wok := fullTree.Get(id, kind)
				got, gok := tailTree.Get(id, kind)
				if !wok || gok != wok || got != want {
					t.Fatalf("split %d: node %d %s = %+v, want %+v", split, id, analysis.KindName(kind), got, want)
				}
			}
		}
	}
}

// TestStateRestoreRejectsMismatchedPorts verifies a snapshot no replay
// over the restoring roster could have taken is refused — the
// fallback-to-full-replay trigger in the recovery ladder.
func TestStateRestoreRejectsMismatchedPorts(t *testing.T) {
	roster, tuples := replayStream(t, 10)
	for _, tc := range []struct {
		name   string
		roster []ReplayNode // the restoring replay's; nil: the stream's
		edit   func(*LastArrivalState, *StatsState)
	}{
		{name: "other nodes", roster: []ReplayNode{{Name: "c", Contributors: []uint32{1, 2}}}},
		{name: "no collectives", roster: []ReplayNode{
			{Name: "a", Contributors: []uint32{1, 2, 3}}, {Name: "b", Contributors: []uint32{4, 5, 6}}}},
		{name: "other collective", roster: []ReplayNode{roster[0],
			{Name: "b", Contributors: []uint32{4, 5, 6}, Collective: 30, HasCollective: true}}},
		{name: "halves fed apart", edit: func(la *LastArrivalState, _ *StatsState) { la.Fed++ }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			la, stats := newTestReplay(t, roster, 32, tuples).State()
			if tc.edit != nil {
				tc.edit(&la, &stats)
			}
			if tc.roster == nil {
				tc.roster = roster
			}
			if err := newTestReplay(t, tc.roster, 0, nil).Restore(la, stats); err == nil {
				t.Fatal("mismatched snapshot accepted")
			}
		})
	}
}

// TestLBJoinOrderStaysBounded is analysis.TestJoinerOrderStaysBounded
// for the last-arrival join: 200000 complete rounds through a join that
// never overflows leave its eviction queue and its state() cost where
// they were after 1000.
func TestLBJoinOrderStaysBounded(t *testing.T) {
	j := newLBJoin(2, lbMaxPending)
	// Contributor 1 runs a round ahead: one or two rounds pending.
	seq := uint32(1)
	j.add(1, collect.TraceTuple{Seq: seq, Start: 2})
	feed := func(rounds int) {
		for i := 0; i < rounds; i++ {
			j.add(1, collect.TraceTuple{Seq: seq + 1, Start: 2})
			if _, done := j.add(0, collect.TraceTuple{Seq: seq, Start: 1}); !done {
				t.Fatalf("round %d did not complete", seq)
			}
			seq++
		}
	}
	feed(1000)
	early := testing.AllocsPerRun(10, func() { j.state() })
	feed(199_000)
	queued := 0
	for r := j.rounds.Oldest(); r != nil; r = r.Next() {
		queued++
	}
	if queued != j.rounds.Pending() || queued > lbMaxPending {
		t.Fatalf("after 200000 rounds the eviction queue holds %d entries for %d pending rounds", queued, j.rounds.Pending())
	}
	if late := testing.AllocsPerRun(10, func() { j.state() }); late != early {
		t.Fatalf("state() allocates %v times after 200000 rounds, %v after 1000", late, early)
	}
	if j.rounds.Lost() != 0 || j.rounds.Pending() != 1 || j.maxDone != seq-1 {
		t.Fatalf("lost %d pending %d maxDone %d", j.rounds.Lost(), j.rounds.Pending(), j.maxDone)
	}
}

// TestLBJoinRefusesWhatASlotCannotHold: a contributor outside [0, k) is
// ignored when fed, and a snapshot carrying one — snapshots come from
// files — fails the restore instead of indexing past the slot.
func TestLBJoinRefusesWhatASlotCannotHold(t *testing.T) {
	j := newLBJoin(2, lbMaxPending)
	j.add(2, collect.TraceTuple{Seq: 1})
	j.add(-1, collect.TraceTuple{Seq: 1})
	if j.rounds.Pending() != 0 {
		t.Fatalf("out-of-range contributors opened %d rounds", j.rounds.Pending())
	}
	j.add(0, collect.TraceTuple{Seq: 1, Start: 7})
	for _, id := range []int32{2, -1} {
		st := j.state()
		st.Pending[0].Contribs[0].ID = id
		if err := newLBJoin(2, lbMaxPending).restore(st); err == nil {
			t.Errorf("snapshot with contributor id %d accepted", id)
		}
	}
	if err := newLBJoin(2, lbMaxPending).restore(j.state()); err != nil {
		t.Fatalf("undamaged snapshot refused: %v", err)
	}

	// A node's join is sized once, by its contributor count: a roster
	// naming one node twice, which could give it two, is refused.
	if _, err := NewReplay([]ReplayNode{
		{Name: "a", Contributors: []uint32{1, 2}},
		{Name: "a", Contributors: []uint32{3, 4, 5}},
	}, 0); err == nil {
		t.Error("roster naming a node twice accepted")
	}
}

// TestWrapperStatsRoundsToRecords drives the wrapper-statistics operator
// alone: one two-contributor round in, the five result records out — in
// kind order, in microseconds — and nothing before the round completes.
func TestWrapperStatsRoundsToRecords(t *testing.T) {
	ws := new(wrapperStats)
	if err := ws.build(2, 8, 4, ws.fold); err != nil {
		t.Fatal(err)
	}
	// Contributors arrive at 0 and 2 us, the collective runs 5..6 us, and
	// they depart at 8 and 9 us.
	ws.joiner.AddContributor(0, collect.TraceTuple{Seq: 1, Start: 0, End: 8000})
	ws.joiner.AddCollective(collect.TraceTuple{Seq: 1, Start: 5000, End: 6000})
	if ws.rounds != 0 || ws.records(7)[0].Count != 0 {
		t.Fatalf("statistics before the round completed: rounds %d, %+v", ws.rounds, ws.records(7)[0])
	}
	ws.joiner.AddContributor(1, collect.TraceTuple{Seq: 1, Start: 2000, End: 9000})
	if ws.rounds != 1 {
		t.Fatalf("rounds %d after one complete round", ws.rounds)
	}
	want := []struct {
		kind           int
		mean, min, max float32
	}{
		{analysis.KindDown, 4, 3, 5},
		{analysis.KindUp, 2.5, 2, 3},
		{analysis.KindTotal, 6.5, 6, 7},
		{analysis.KindArrivalWait, 1, 0, 2},
		{analysis.KindDepartureWait, 0.5, 0, 1},
	}
	got := ws.records(7)
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i, w := range want {
		r := got[i]
		if r.ID != 7 || int(r.Kind) != w.kind || r.Count != 2 || r.Mean != w.mean || r.Min != w.min || r.Max != w.max {
			t.Errorf("record %d: %+v, want id 7 kind %s count 2 mean %v min %v max %v",
				i, r, analysis.KindName(w.kind), w.mean, w.min, w.max)
		}
	}
}

// TestDrainTuplesOverWrappedBuffer: over a trace buffer that has wrapped
// and lapped its reader, drainTuples hands its callback exactly the
// records DrainBytesInto drains, in order, and returns their count — the
// number the modelled analysis CPU is charged for.
func TestDrainTuplesOverWrappedBuffer(t *testing.T) {
	buf, err := pastset.NewElementFixed("trace", 8, collect.TupleSize)
	if err != nil {
		t.Fatal(err)
	}
	got, ref := buf.NewCursor(), buf.NewCursor()
	var batch []byte
	var scratch [collect.TupleSize]byte
	seq := uint32(0)
	// The second burst crosses the arena's end, the fourth overwrites
	// five records nobody read, the fifth is empty.
	for _, burst := range []int{5, 6, 8, 13, 0, 3} {
		for i := 0; i < burst; i++ {
			seq++
			collect.TraceTuple{ECID: 7, Op: paths.OpWrite, Seq: seq, Start: int64(seq) * 10, End: int64(seq)*10 + 3}.EncodeTo(scratch[:])
			if _, err := buf.WriteCopy(scratch[:]); err != nil {
				t.Fatal(err)
			}
		}
		var tuples []collect.TraceTuple
		n := drainTuples(got, &batch, func(tu collect.TraceTuple) { tuples = append(tuples, tu) })
		raw, want, err := ref.DrainBytesInto(nil, 0, collect.TupleSize)
		if err != nil {
			t.Fatal(err)
		}
		wantTuples, err := collect.DecodeAll(raw)
		if err != nil {
			t.Fatal(err)
		}
		if n != want || len(tuples) != n || (n > 0 && !reflect.DeepEqual(tuples, wantTuples)) {
			t.Fatalf("burst of %d: drainTuples returned %d and handed over %v; DrainBytesInto drained %d: %v",
				burst, n, tuples, want, wantTuples)
		}
		if n > 0 && tuples[n-1].Seq != seq {
			t.Fatalf("burst of %d: newest tuple handed over is %d, written %d", burst, tuples[n-1].Seq, seq)
		}
	}
	if got.Skipped() != 5 || got.Read() != ref.Read() {
		t.Fatalf("read/skipped = %d/%d, reference cursor %d/%d", got.Read(), got.Skipped(), ref.Read(), ref.Skipped())
	}

	// A cursor over anything but a trace buffer hands nothing over.
	other, err := pastset.NewElementFixed("other", 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.WriteCopy([]byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if n := drainTuples(other.NewCursor(), &batch, func(collect.TraceTuple) { t.Error("callback on a 4-byte record") }); n != 0 {
		t.Fatalf("drained %d records of a buffer that holds no trace tuples", n)
	}
}
