package analysis

import (
	"math/rand"
	"runtime"
	"testing"

	"eventspace/internal/collect"
	"eventspace/internal/paths"
)

// TestStreamSplitEquivalence is the snapshot contract: splitting a
// sample sequence at any point — feed, snapshot, restore, feed the
// rest — yields exactly the statistics of a straight-through stream.
func TestStreamSplitEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, 500)
	for i := range samples {
		samples[i] = rng.Float64() * 1000
	}
	for _, split := range []int{0, 1, 50, 99, 100, 101, 250, 499, 500} {
		full := NewStream(100)
		head := NewStream(100)
		for i, x := range samples {
			full.Add(x)
			if i < split {
				head.Add(x)
			}
		}
		tail, err := NewStreamFrom(head.State())
		if err != nil {
			t.Fatalf("split %d: %v", split, err)
		}
		for _, x := range samples[split:] {
			tail.Add(x)
		}
		if got, want := tail.Snapshot(), full.Snapshot(); got != want {
			t.Fatalf("split %d: restored stream %+v, straight-through %+v", split, got, want)
		}
	}
}

func TestStreamStateRejectsCorrupt(t *testing.T) {
	s := NewStream(4)
	for i := 0; i < 10; i++ {
		s.Add(float64(i))
	}
	st := s.State()
	st.Ring = append(st.Ring, 1, 2, 3) // exceeds window
	if _, err := NewStreamFrom(st); err == nil {
		t.Fatal("oversized ring accepted")
	}
	st2 := s.State()
	st2.N = 1 // fewer samples than ring entries
	if _, err := NewStreamFrom(st2); err == nil {
		t.Fatal("ring longer than sample count accepted")
	}
}

// joinTuple fabricates round tuples: contributor c of round seq.
func joinTuple(ecid uint32, seq uint32, start, end int64) collect.TraceTuple {
	return collect.TraceTuple{ECID: ecid, Op: paths.OpWrite, Seq: seq, Start: start, End: end}
}

// TestJoinerSplitEquivalence verifies a snapshotted/restored joiner
// completes the same rounds with the same metrics as one that saw the
// whole stream, including rounds that straddle the snapshot.
func TestJoinerSplitEquivalence(t *testing.T) {
	const k = 3
	type event struct {
		contributor int // -1 = collective
		t           collect.TraceTuple
	}
	rng := rand.New(rand.NewSource(2))
	var events []event
	for seq := uint32(0); seq < 60; seq++ {
		base := int64(1000 + 100*int64(seq))
		events = append(events, event{-1, joinTuple(99, seq, base+10, base+20)})
		for c := 0; c < k; c++ {
			events = append(events, event{c, joinTuple(uint32(c), seq, base+int64(c), base+30+int64(c))})
		}
	}
	// Shuffle within a small horizon so rounds interleave and some are
	// pending at every split point.
	rng.Shuffle(len(events), func(i, j int) {
		if d := i - j; d < 12 && d > -12 {
			events[i], events[j] = events[j], events[i]
		}
	})

	run := func(j *Joiner, evs []event) {
		for _, ev := range evs {
			if ev.contributor < 0 {
				j.AddCollective(ev.t)
			} else {
				j.AddContributor(ev.contributor, ev.t)
			}
		}
	}
	for _, split := range []int{0, 7, 33, 120, len(events)} {
		var fullOut, splitOut []RoundMetrics
		full, err := NewJoiner(k, 64, func(m RoundMetrics) { fullOut = append(fullOut, keep(m)) })
		if err != nil {
			t.Fatal(err)
		}
		run(full, events)

		head, err := NewJoiner(k, 64, func(m RoundMetrics) { splitOut = append(splitOut, keep(m)) })
		if err != nil {
			t.Fatal(err)
		}
		run(head, events[:split])
		tail, err := NewJoiner(k, 64, func(m RoundMetrics) { splitOut = append(splitOut, keep(m)) })
		if err != nil {
			t.Fatal(err)
		}
		if err := tail.Restore(head.State()); err != nil {
			t.Fatal(err)
		}
		run(tail, events[split:])

		if len(splitOut) != len(fullOut) {
			t.Fatalf("split %d: %d rounds completed, want %d", split, len(splitOut), len(fullOut))
		}
		for i := range fullOut {
			if splitOut[i].Seq != fullOut[i].Seq || splitOut[i].LastArrival != fullOut[i].LastArrival {
				t.Fatalf("split %d: round %d = %+v, want %+v", split, i, splitOut[i], fullOut[i])
			}
		}
		if tail.rounds.Lost() != full.rounds.Lost() {
			t.Fatalf("split %d: lost %d, want %d", split, tail.rounds.Lost(), full.rounds.Lost())
		}
		if tail.rounds.Pending() != full.rounds.Pending() {
			t.Fatalf("split %d: pending %d, want %d", split, tail.rounds.Pending(), full.rounds.Pending())
		}
	}
}

func TestJoinerStateRejectsMismatchedK(t *testing.T) {
	j, err := NewJoiner(3, 64, func(RoundMetrics) {})
	if err != nil {
		t.Fatal(err)
	}
	st := j.State()
	st.K = 4
	if err := j.Restore(st); err == nil {
		t.Fatal("k mismatch accepted")
	}
}

// queued counts the entries of the table's eviction queue.
func queued(t *Rounds) int {
	n := 0
	for r := t.Oldest(); r != nil; r = r.Next() {
		n++
	}
	return n
}

// TestJoinerOrderStaysBounded: a joiner that never overflows keeps no
// trace of the rounds that passed through it. (PR 17's insertion-order
// slice dropped entries only while evicting, so it grew by one entry
// per round for ever and every State() walked all of it: 2.4 ms per
// call after a million rounds, against 3.8 µs after a thousand.)
func TestJoinerOrderStaysBounded(t *testing.T) {
	j, err := NewJoiner(2, 64, func(RoundMetrics) {})
	if err != nil {
		t.Fatal(err)
	}
	// Contributor 1 runs a round ahead, so round seq+1 opens before
	// round seq closes: one or two rounds pending at any time.
	seq := uint32(0)
	j.AddContributor(1, collect.TraceTuple{Seq: seq, Start: 2, End: 8})
	feed := func(rounds int) {
		for i := 0; i < rounds; i++ {
			j.AddContributor(0, collect.TraceTuple{Seq: seq, Start: 1, End: 9})
			j.AddContributor(1, collect.TraceTuple{Seq: seq + 1, Start: 2, End: 8})
			j.AddCollective(collect.TraceTuple{Seq: seq, Start: 3, End: 5})
			seq++
		}
	}
	feed(1000)
	early := testing.AllocsPerRun(10, func() { j.State() })
	feed(199_000)
	if n := queued(j.rounds); n != j.rounds.Pending() || n > 64 {
		t.Fatalf("after 200000 rounds the eviction queue holds %d entries for %d pending rounds", n, j.rounds.Pending())
	}
	if late := testing.AllocsPerRun(10, func() { j.State() }); late != early {
		t.Fatalf("State() allocates %v times after 200000 rounds, %v after 1000", late, early)
	}
	if j.rounds.Lost() != 0 || j.rounds.Pending() != 1 {
		t.Fatalf("lost %d pending %d", j.rounds.Lost(), j.rounds.Pending())
	}
}

// TestJoinerRefusesWhatASlotCannotHold: contributor ids index a
// fan-in-sized slot, so one outside [0, k) is ignored when fed and
// rejected — as is a repeated id or a repeated round — when it arrives
// in a snapshot.
func TestJoinerRefusesWhatASlotCannotHold(t *testing.T) {
	j, err := NewJoiner(2, 8, func(RoundMetrics) {})
	if err != nil {
		t.Fatal(err)
	}
	j.AddContributor(2, collect.TraceTuple{Seq: 1})
	j.AddContributor(-1, collect.TraceTuple{Seq: 1})
	if j.rounds.Pending() != 0 {
		t.Fatalf("out-of-range contributors opened %d rounds", j.rounds.Pending())
	}
	j.AddContributor(1, collect.TraceTuple{Seq: 1, Start: 4})
	good := j.State()
	for name, damage := range map[string]func(st *JoinerState){
		"id = k":  func(st *JoinerState) { st.Pending[0].Contribs[0].ID = 2 },
		"id = -1": func(st *JoinerState) { st.Pending[0].Contribs[0].ID = -1 },
		"repeated id": func(st *JoinerState) {
			st.Pending[0].Contribs = append(st.Pending[0].Contribs, st.Pending[0].Contribs[0])
		},
		"repeated seq": func(st *JoinerState) { st.Pending = append(st.Pending, st.Pending[0]) },
	} {
		st := good
		st.Pending = []RoundState{{Seq: 1, Contribs: append([]ContribState(nil), good.Pending[0].Contribs...)}}
		damage(&st)
		if err := j.Restore(st); err == nil {
			t.Errorf("%s: snapshot accepted", name)
		}
	}
	if err := j.Restore(good); err != nil {
		t.Fatalf("undamaged snapshot refused: %v", err)
	}
}

// TestRoundsWarmTableSurvivesGC: a table that has reached its high-water
// mark of pending rounds allocates nothing, and a garbage collection in
// between does not change that. (Slots used to idle in a sync.Pool,
// which every collection empties: the first rounds after each GC
// allocated their slots again.)
func TestRoundsWarmTableSurvivesGC(t *testing.T) {
	const k, depth = 8, 4
	tab := NewRounds(k, 64)
	seq := uint32(0)
	// depth rounds stay open at a time: the oldest completes as a new
	// one opens, the way a pull reply interleaves collectors.
	cycle := func() {
		r := tab.Open(seq)
		for i := 0; i < k; i++ {
			r.Set(i, collect.TraceTuple{Seq: seq, Start: 1, End: 9})
		}
		if seq >= depth {
			tab.Done(tab.Oldest())
		}
		seq++
	}
	for i := 0; i < 1000; i++ {
		cycle()
	}
	// Counted directly: testing.AllocsPerRun warms up with one call of
	// its own, which is exactly the call that would pay for the GC.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 1000; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("a warm table allocated %d objects over 1000 rounds after a collection", n)
	}
	if tab.Pending() != depth || queued(tab) != depth {
		t.Fatalf("pending %d, queued %d, want %d", tab.Pending(), queued(tab), depth)
	}
}
