package monitor

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"eventspace/internal/analysis"
	"eventspace/internal/collect"
	"eventspace/internal/paths"
)

// replay is what Replay and the reference pair both offer.
type replay interface {
	Feed(collect.TraceTuple)
	State() (LastArrivalState, StatsState)
	Restore(LastArrivalState, StatsState) error
	Weighted() *WeightedTree
	Resume() *LoadBalanceResume
	Lost() uint64
	Tree() *AnalysisTree
	RoundsAnalyzed() uint64
	Fed() (fed, contributors, joined uint64)
}

// diffRoster is two nodes with three contributors and a collective
// collector each, and node "c" with two contributors and none.
var diffRoster = []ReplayNode{
	{Name: "a", Contributors: []uint32{1, 2, 3}, Collective: 10, HasCollective: true},
	{Name: "b", Contributors: []uint32{4, 5, 6}, Collective: 20, HasCollective: true},
	{Name: "c", Contributors: []uint32{7, 8}},
}

// diffStream lays out rounds over diffRoster, shuffled within a
// ten-tuple horizon. A stub collector (ECID 99, on no roster node)
// writes every third round, and mode and checkpoint-mark control tuples
// land every fiftieth. Node c's second contributor and node b's
// collective write only every seventh round, so those rounds pile up
// pending in c's last-arrival join and b's statistics join — past 4096
// of them, the joins evict.
func diffStream(seed int64, rounds int) []collect.TraceTuple {
	rng := rand.New(rand.NewSource(seed))
	var ts []collect.TraceTuple
	tuple := func(ecid, seq uint32, start, end int64) {
		ts = append(ts, collect.TraceTuple{ECID: ecid, Op: paths.OpWrite, Seq: seq, Start: start, End: end})
	}
	for seq := uint32(1); seq <= uint32(rounds); seq++ {
		base := int64(seq) * 10_000
		for _, n := range diffRoster {
			for c, id := range n.Contributors {
				if n.Name == "c" && c == 1 && seq%7 != 0 {
					continue
				}
				jit := rng.Int63n(900)
				tuple(id, seq, base+jit+int64(c), base+3000+jit)
			}
			if n.HasCollective && (n.Name != "b" || seq%7 == 0) {
				tuple(n.Collective, seq, base+1000, base+2000)
			}
		}
		if seq%3 == 0 {
			tuple(99, seq, base, base+5)
		}
		if seq%50 == 0 {
			ts = append(ts,
				collect.EncodeAlert(collect.AlertTuple{QueryHash: collect.HashName("s"), Group: 1, Seq: seq, At: base}),
				collect.EncodeCheckpointMark(collect.CheckpointMark{Seq: seq / 50, Tuples: uint64(len(ts)), At: base}))
		}
	}
	rng.Shuffle(len(ts), func(i, j int) {
		if d := i - j; d < 10 && d > -10 {
			ts[i], ts[j] = ts[j], ts[i]
		}
	})
	return ts
}

// sameReplay fails unless got and want agree on everything a replay
// reports: the snapshot pair — so the checkpoint frame too, which
// encodes nothing else — the weighted tree, the resume floors, the
// analysis tree and every counter.
func sameReplay(t *testing.T, what string, got, want replay) {
	t.Helper()
	gla, gst := got.State()
	wla, wst := want.State()
	if !reflect.DeepEqual(gla, wla) || !reflect.DeepEqual(gst, wst) {
		t.Fatalf("%s: snapshot pair diverged from the reference", what)
	}
	sameWeighted(t, what, got.Weighted(), want.Weighted())
	gr, wr := got.Resume(), want.Resume()
	sameWeighted(t, what+" resume", gr.Weighted, wr.Weighted)
	if !reflect.DeepEqual(gr.Floors, wr.Floors) {
		t.Fatalf("%s: floors %v, reference %v", what, gr.Floors, wr.Floors)
	}
	sameTree(t, what, got.Tree(), want.Tree())
	gf, gc, gj := got.Fed()
	wf, wc, wj := want.Fed()
	if got.Lost() != want.Lost() || got.RoundsAnalyzed() != want.RoundsAnalyzed() || gf != wf || gc != wc || gj != wj {
		t.Fatalf("%s: lost %d rounds %d fed %d/%d/%d, reference lost %d rounds %d fed %d/%d/%d", what,
			got.Lost(), got.RoundsAnalyzed(), gf, gc, gj, want.Lost(), want.RoundsAnalyzed(), wf, wc, wj)
	}
}

func sameWeighted(t *testing.T, what string, got, want *WeightedTree) {
	t.Helper()
	gn, wn := got.Nodes(), want.Nodes()
	sort.Strings(gn)
	sort.Strings(wn)
	if !reflect.DeepEqual(gn, wn) {
		t.Fatalf("%s: weighted nodes %v, reference %v", what, gn, wn)
	}
	for _, n := range wn {
		if !reflect.DeepEqual(got.Counts(n), want.Counts(n)) {
			t.Fatalf("%s: node %s counts %v, reference %v", what, n, got.Counts(n), want.Counts(n))
		}
	}
}

func sameTree(t *testing.T, what string, got, want *AnalysisTree) {
	t.Helper()
	gids, wids := got.IDs(), want.IDs()
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	sort.Slice(wids, func(i, j int) bool { return wids[i] < wids[j] })
	if !reflect.DeepEqual(gids, wids) {
		t.Fatalf("%s: tree ids %v, reference %v", what, gids, wids)
	}
	for _, id := range wids {
		for kind := analysis.KindDown; kind <= analysis.KindDepartureWait; kind++ {
			g, gok := got.Get(id, kind)
			w, wok := want.Get(id, kind)
			if gok != wok || g != w {
				t.Fatalf("%s: node %d %s = %+v, reference %+v", what, id, analysis.KindName(kind), g, w)
			}
		}
	}
}

// TestReplayMatchesReference runs seeded streams through Replay and
// through the pair it merged, straight through and restored from a
// snapshot at several split points, and requires them to agree on
// everything either reports. The long stream forces evictions in both
// kinds of join.
func TestReplayMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		seed   int64
		rounds int
		window int
	}{{1, 300, 0}, {2, 300, 16}, {3, 5000, 0}} {
		tuples := diffStream(tc.seed, tc.rounds)
		build := func() (replay, replay) {
			t.Helper()
			got, err := NewReplay(diffRoster, tc.window)
			if err != nil {
				t.Fatal(err)
			}
			want, err := newRefReplay(diffRoster, tc.window)
			if err != nil {
				t.Fatal(err)
			}
			return got, want
		}
		got, want := build()
		for _, tu := range tuples {
			got.Feed(tu)
			want.Feed(tu)
		}
		name := fmt.Sprintf("seed %d, %d rounds", tc.seed, tc.rounds)
		sameReplay(t, name, got, want)
		if lost := got.Lost(); (tc.rounds > 4096) != (lost > 0) {
			t.Fatalf("%s: %d rounds lost", name, lost)
		}

		for _, split := range []int{0, 17, len(tuples) / 3, len(tuples)/2 + 1, len(tuples)} {
			headGot, headWant := build()
			for _, tu := range tuples[:split] {
				headGot.Feed(tu)
				headWant.Feed(tu)
			}
			tailGot, tailWant := build()
			if err := tailGot.Restore(headGot.State()); err != nil {
				t.Fatalf("%s, split %d: %v", name, split, err)
			}
			if err := tailWant.Restore(headWant.State()); err != nil {
				t.Fatalf("%s, split %d: reference: %v", name, split, err)
			}
			what := fmt.Sprintf("%s, split %d", name, split)
			sameReplay(t, what+" (restored)", tailGot, tailWant)
			for _, tu := range tuples[split:] {
				tailGot.Feed(tu)
				tailWant.Feed(tu)
			}
			sameReplay(t, what, tailGot, tailWant)
			sameReplay(t, what+" against straight through", tailGot, got)
		}
	}
}
