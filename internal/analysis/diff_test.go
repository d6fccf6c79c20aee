package analysis

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"eventspace/internal/collect"
)

// The references below are the plain implementations the product code
// used through PR 17, kept here to test their replacements against: a
// join of maps sorted on demand, and a median window mirrored in a
// sorted slice.

// refJoiner is the map-and-sort join. One deliberate difference from
// PR 17's: a completed round's entry leaves order when the round does.
// PR 17 left it behind (so order grew by one entry per round for ever),
// and a tuple re-fed for that round then inherited the dead entry's
// place in the eviction queue — but only in a joiner that had never
// been snapshotted, because State() already dropped dead entries. The
// queue here is what State() always described: live rounds, in the
// order they were opened.
type refJoiner struct {
	k, maxPending int
	pending       map[uint32]*refRound
	order         []uint32
	lost          uint64
	out           []RoundMetrics
}

type refRound struct {
	coll     collect.TraceTuple
	haveColl bool
	contribs map[int]collect.TraceTuple
}

func newRefJoiner(k, maxPending int) *refJoiner {
	return &refJoiner{k: k, maxPending: maxPending, pending: make(map[uint32]*refRound)}
}

func (j *refJoiner) add(contributor int, t collect.TraceTuple) {
	r, ok := j.pending[t.Seq]
	if !ok {
		r = &refRound{contribs: make(map[int]collect.TraceTuple)}
		j.pending[t.Seq] = r
		j.order = append(j.order, t.Seq)
		if len(j.pending) > j.maxPending {
			delete(j.pending, j.order[0])
			j.order = j.order[1:]
			j.lost++
		}
	}
	if contributor < 0 {
		r.coll, r.haveColl = t, true
	} else {
		r.contribs[contributor] = t
	}
	if !r.haveColl || len(r.contribs) != j.k {
		return
	}
	delete(j.pending, t.Seq)
	j.order = slices.DeleteFunc(j.order, func(s uint32) bool { return s == t.Seq })
	j.out = append(j.out, refAnalyze(t.Seq, r))
}

func refAnalyze(seq uint32, r *refRound) RoundMetrics {
	ids := make([]int, 0, len(r.contribs))
	for id := range r.contribs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	order := func(stamp func(collect.TraceTuple) int64) []int {
		by := append([]int(nil), ids...)
		sort.Slice(by, func(a, b int) bool {
			ta, tb := stamp(r.contribs[by[a]]), stamp(r.contribs[by[b]])
			return ta < tb || (ta == tb && by[a] < by[b])
		})
		return by
	}
	byArrival := order(func(t collect.TraceTuple) int64 { return t.Start })
	byDeparture := order(func(t collect.TraceTuple) int64 { return t.End })
	last, first := byArrival[len(byArrival)-1], byDeparture[0]
	t2, t3 := r.coll.Start, r.coll.End
	out := RoundMetrics{Seq: seq, LastArrival: last, FirstDepart: first}
	for _, id := range ids {
		c := r.contribs[id]
		out.Per = append(out.Per, ContributorMetrics{
			Contributor:   id,
			Down:          time.Duration(t2 - c.Start),
			Up:            time.Duration(c.End - t3),
			Total:         time.Duration((c.End - c.Start) - (t3 - t2)),
			ArrivalWait:   time.Duration(r.contribs[last].Start - c.Start),
			DepartureWait: time.Duration(c.End - r.contribs[first].End),
		})
	}
	return out
}

func (j *refJoiner) state() JoinerState {
	st := JoinerState{K: j.k, MaxPending: j.maxPending, Lost: j.lost}
	for _, seq := range j.order {
		r := j.pending[seq]
		rs := RoundState{Seq: seq, Collective: r.coll, HaveColl: r.haveColl}
		for id := 0; id < j.k; id++ {
			if t, ok := r.contribs[id]; ok {
				rs.Contribs = append(rs.Contribs, ContribState{ID: int32(id), Tuple: t})
			}
		}
		st.Pending = append(st.Pending, rs)
	}
	return st
}

func refJoinerFrom(st JoinerState) *refJoiner {
	j := newRefJoiner(st.K, st.MaxPending)
	j.lost = st.Lost
	for _, rs := range st.Pending {
		r := &refRound{coll: rs.Collective, haveColl: rs.HaveColl, contribs: make(map[int]collect.TraceTuple)}
		for _, c := range rs.Contribs {
			r.contribs[int(c.ID)] = c.Tuple
		}
		j.pending[rs.Seq] = r
		j.order = append(j.order, rs.Seq)
	}
	return j
}

// TestJoinerMatchesReference drives the slot-table Joiner and the
// map-and-sort reference with the same seeded interleavings —
// contributors out of order, duplicates that overwrite, tuples re-fed
// for rounds that already completed, more rounds in flight than
// maxPending holds, and a snapshot/restore of both sides at a random
// cut — and demands the same emitted metrics, loss count and state
// throughout.
func TestJoinerMatchesReference(t *testing.T) {
	for _, k := range []int{1, 2, 8} {
		for _, maxPending := range []int{1, 3, 64} {
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("k%d/max%d/seed%d", k, maxPending, seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed*1000 + int64(k*10+maxPending)))
					var got []RoundMetrics
					emit := func(m RoundMetrics) { got = append(got, keep(m)) }
					j, err := NewJoiner(k, maxPending, emit)
					if err != nil {
						t.Fatal(err)
					}
					ref := newRefJoiner(k, maxPending)

					// 400 rounds of k contributor tuples and a collective
					// one, shuffled within a horizon of a few rounds: from
					// neighbours overlapping (nearly every round completes)
					// to twice what maxPending holds (most are evicted).
					type event struct {
						contributor int // -1 = collective
						t           collect.TraceTuple
					}
					var events []event
					for seq := uint32(0); seq < 400; seq++ {
						for c := -1; c < k; c++ {
							events = append(events, event{c, collect.TraceTuple{Seq: seq, Start: rng.Int63n(50), End: 100 + rng.Int63n(50)}})
						}
					}
					horizon := (k + 1) * []int{1, 2, maxPending + 1, 2 * maxPending}[seed%4]
					rng.Shuffle(len(events), func(a, b int) {
						if d := a - b; d <= horizon && d >= -horizon {
							events[a], events[b] = events[b], events[a]
						}
					})
					cut := rng.Intn(len(events))
					for step, ev := range events {
						if step == cut {
							st := j.State()
							if want := ref.state(); !reflect.DeepEqual(st, want) {
								t.Fatalf("step %d: state before the cut\n got %+v\nwant %+v", step, st, want)
							}
							if err := j.Restore(st); err != nil {
								t.Fatal(err)
							}
							out := ref.out
							ref = refJoinerFrom(st)
							ref.out = out
						}
						// One tuple in five is followed by a second tuple
						// from an earlier point of the stream, restamped: a
						// duplicate if its round is still pending, otherwise
						// a tuple re-fed for a completed or evicted round.
						feed := []event{ev}
						if rng.Intn(5) == 0 {
							again := events[rng.Intn(step+1)]
							again.t.Start, again.t.End = rng.Int63n(50), 100+rng.Int63n(50)
							feed = append(feed, again)
						}
						for _, ev := range feed {
							if ev.contributor < 0 {
								j.AddCollective(ev.t)
							} else {
								j.AddContributor(ev.contributor, ev.t)
							}
							ref.add(ev.contributor, ev.t)
						}
						if len(got) != len(ref.out) || j.rounds.Lost() != ref.lost || j.rounds.Pending() != len(ref.pending) {
							t.Fatalf("step %d: emitted %d lost %d pending %d, reference %d %d %d",
								step, len(got), j.rounds.Lost(), j.rounds.Pending(), len(ref.out), ref.lost, len(ref.pending))
						}
					}
					if !reflect.DeepEqual(got, ref.out) {
						t.Fatal("emitted round metrics differ from the reference's")
					}
					if st, want := j.State(), ref.state(); !reflect.DeepEqual(st, want) {
						t.Fatalf("final state\n got %+v\nwant %+v", st, want)
					}
					t.Logf("%d rounds emitted, %d lost, %d pending", len(got), j.rounds.Lost(), j.rounds.Pending())
					if len(got) == 0 {
						t.Fatal("driver emitted no round")
					}
				})
			}
		}
	}
}

// refStream is the mirrored stream: the window's samples are also kept
// sorted, by a binary search and a memmove per sample in and out.
type refStream struct {
	n                  uint64
	mean, m2, min, max float64
	window, head       int
	ring, sorted       []float64
}

func (s *refStream) add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	}
	s.min, s.max = min(s.min, x), max(s.max, x)
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
	if len(s.ring) < s.window {
		s.ring = append(s.ring, x)
	} else {
		old := s.ring[s.head]
		s.ring[s.head] = x
		s.head = (s.head + 1) % s.window
		i := sort.SearchFloat64s(s.sorted, old)
		s.sorted = slices.Delete(s.sorted, i, i+1)
	}
	s.sorted = slices.Insert(s.sorted, sort.SearchFloat64s(s.sorted, x), x)
}

func (s *refStream) snapshot() Result {
	r := Result{Count: s.n, Mean: s.mean, Min: s.min, Max: s.max}
	if s.n >= 2 {
		r.Std = math.Sqrt(s.m2 / float64(s.n-1))
	}
	if n := len(s.sorted); n%2 == 1 {
		r.Median = s.sorted[n/2]
	} else if n > 0 {
		r.Median = (s.sorted[n/2-1] + s.sorted[n/2]) / 2
	}
	return r
}

// TestStreamMatchesReference: the ring-only stream and the mirrored
// reference agree on every statistic after every sample — windows of 1,
// 2 and 100, before and after the window fills, with repeated and
// constant samples.
func TestStreamMatchesReference(t *testing.T) {
	inputs := map[string]func(rng *rand.Rand) float64{
		"random":     func(rng *rand.Rand) float64 { return rng.Float64() * 1000 },
		"duplicates": func(rng *rand.Rand) float64 { return float64(rng.Intn(4)) },
		"constant":   func(*rand.Rand) float64 { return 7.25 },
	}
	for _, window := range []int{1, 2, 100} {
		for name, next := range inputs {
			rng := rand.New(rand.NewSource(int64(window)))
			s, ref := NewStream(window), &refStream{window: window}
			if got, want := s.Snapshot(), ref.snapshot(); got != want {
				t.Fatalf("window %d %s: empty stream %+v, reference %+v", window, name, got, want)
			}
			for i := 0; i < 350; i++ {
				x := next(rng)
				s.Add(x)
				ref.add(x)
				if got, want := s.Snapshot(), ref.snapshot(); got != want {
					t.Fatalf("window %d %s: after sample %d: %+v, reference %+v", window, name, i, got, want)
				}
			}
		}
	}
}

// TestSelectKthMatchesSort: selection agrees with a full sort for every
// k, on random, repeated, ordered and constant inputs, and on inputs
// whose maximum or minimum repeats at either end — as float64 (the
// sliding-window median) and as int64 (esql's percentiles, whose
// latencies repeat heavily).
func TestSelectKthMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	fills := []func(i int) float64{
		func(int) float64 { return rng.Float64() * 1000 },
		func(int) float64 { return float64(rng.Intn(3)) },
		func(i int) float64 { return float64(i) },
		func(i int) float64 { return float64(-i) },
		func(int) float64 { return 2 },
	}
	for n := 1; n <= 40; n++ {
		for _, fill := range fills {
			in := make([]float64, n)
			ints := make([]int64, n)
			for i := range in {
				in[i] = fill(i)
				ints[i] = int64(in[i]) // truncation only adds duplicates
			}
			selectMatchesSort(t, in)
			selectMatchesSort(t, ints)
		}
	}
	// Two values over a long input: the partition must make progress
	// through runs of elements equal to the pivot.
	dup := make([]int64, 1000)
	for i := range dup {
		dup[i] = int64(rng.Intn(2)) - 1
	}
	selectMatchesSort(t, dup)
	// The extreme ranks' linear path meeting ties: the maximum or the
	// minimum repeated, first, last, both, and once more in between.
	for n := 2; n <= 40; n++ {
		for _, ext := range []int64{100, -100} {
			for _, at := range [][]int{{0, n - 1}, {0, 1}, {n - 2, n - 1}, {0, n / 2, n - 1}} {
				in := make([]int64, n)
				for i := range in {
					in[i] = int64(rng.Intn(5))
				}
				for _, i := range at {
					in[i] = ext
				}
				selectMatchesSort(t, in)
				floats := make([]float64, n)
				for i, v := range in {
					floats[i] = float64(v)
				}
				selectMatchesSort(t, floats)
			}
		}
	}
}

// selectMatchesSort checks SelectKth against a sorted copy for every k,
// and that it only reorders.
func selectMatchesSort[T cmp.Ordered](t *testing.T, in []T) {
	t.Helper()
	sorted := slices.Clone(in)
	slices.Sort(sorted)
	for k := range in {
		a := slices.Clone(in)
		if got := SelectKth(a, k); got != sorted[k] {
			t.Fatalf("n=%d k=%d: selected %v, sorted[k] = %v (input %v)", len(in), k, got, sorted[k], in)
		}
		if k > 0 && slices.Max(a[:k]) > a[k] {
			t.Fatalf("n=%d k=%d: an element before k exceeds it: %v", len(in), k, a)
		}
		if k+1 < len(a) && slices.Min(a[k+1:]) < a[k] {
			t.Fatalf("n=%d k=%d: an element after k is below it: %v", len(in), k, a)
		}
		kept := slices.Clone(a)
		slices.Sort(kept)
		if !slices.Equal(kept, sorted) {
			t.Fatalf("n=%d k=%d: the selection is no permutation of the input: %v", len(in), k, a)
		}
	}
}
