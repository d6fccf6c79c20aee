package analysis

import (
	"fmt"
	"time"

	"eventspace/internal/collect"
)

// TCPLatency computes the two-way TCP/IP latency of an inter-host hop from
// the stub-side tuple (t1 = Start, t4 = End, collected before the stub by
// e.g. EC12 in figure 1) and the communication-thread-side tuple
// (t2 = Start, t3 = End, collected by the first event collector the CT
// calls, e.g. EC13): (t4-t1) - (t3-t2).
func TCPLatency(client, server collect.TraceTuple) time.Duration {
	return time.Duration((client.End - client.Start) - (server.End - server.Start))
}

// ContributorMetrics are the section 3 per-contributor figures for one
// collective round.
type ContributorMetrics struct {
	Contributor   int
	Down          time.Duration // t2 - t1_i
	Up            time.Duration // t4_i - t3
	Total         time.Duration // (t4_i - t1_i) - (t3 - t2)
	ArrivalRank   int           // 0 = arrived first
	DepartureRank int           // 0 = departed first
	ArrivalWait   time.Duration // t1_l - t1_i (l = last arriver)
	DepartureWait time.Duration // t4_i - t4_f (f = first departer)
}

// RoundMetrics is the full analysis of one collective round. Per is
// scratch the Joiner reuses for its next round: it is valid only for
// the duration of the emit call that delivers it, and a consumer that
// keeps a RoundMetrics longer copies Per first.
type RoundMetrics struct {
	Seq         uint32
	Per         []ContributorMetrics // one per contributor, indexed by contributor id
	LastArrival int                  // contributor that arrived last
	FirstDepart int                  // contributor that departed first
}

// rankKey orders one contributor among a round's arrivals or
// departures: by stamp, ties broken on contributor id for determinism.
type rankKey struct {
	stamp int64
	id    int
}

func (a rankKey) before(b rankKey) bool {
	return a.stamp < b.stamp || (a.stamp == b.stamp && a.id < b.id)
}

// sortRankKeys is a Shell sort: in place, nothing allocated, no
// comparison callback. Fan-in is 2–8 in the 8-way trees, where it is
// little more than an insertion sort; a flat tree's fan-in is its host
// count, where the wider gaps keep it well under quadratic.
//
//lint:hotpath twice per completed round
func sortRankKeys(keys []rankKey) {
	for _, gap := range [...]int{701, 301, 132, 57, 23, 10, 4, 1} {
		for i := gap; i < len(keys); i++ {
			k, j := keys[i], i
			for ; j >= gap && k.before(keys[j-gap]); j -= gap {
				keys[j] = keys[j-gap]
			}
			keys[j] = k
		}
	}
}

// Joiner assembles rounds from the tuple streams of one collective
// wrapper's event collectors — k contributor collectors plus the
// collective collector — over a Rounds table, and analyzes each round
// as it completes.
type Joiner struct {
	rounds *Rounds
	emit   func(RoundMetrics)
	// Analysis scratch, fan-in long: a completed round is analyzed in
	// place, so a warm joiner allocates nothing per round.
	per  []ContributorMetrics
	keys []rankKey
}

// NewJoiner creates a joiner for a k-contributor collective. emit is
// called with the metrics of every completed round, in completion order.
func NewJoiner(k, maxPending int, emit func(RoundMetrics)) (*Joiner, error) {
	if k < 1 {
		return nil, fmt.Errorf("analysis: joiner: k %d < 1", k)
	}
	if maxPending < 1 {
		maxPending = 64
	}
	if emit == nil {
		return nil, fmt.Errorf("analysis: joiner: nil emit")
	}
	return &Joiner{
		rounds: NewRounds(k, maxPending), emit: emit,
		per: make([]ContributorMetrics, k), keys: make([]rankKey, k),
	}, nil
}

// AddCollective feeds the collective wrapper's tuple for its round.
//
//lint:hotpath the statistics fold, once per collective tuple
func (j *Joiner) AddCollective(t collect.TraceTuple) {
	r := j.rounds.Open(t.Seq)
	r.Collective = t
	r.HaveColl = true
	j.finish(r)
}

// AddContributor feeds contributor i's tuple for its round. An i
// outside [0, k) is ignored: it could only index past the round's slot.
//
//lint:hotpath the statistics fold, once per contributor tuple
func (j *Joiner) AddContributor(i int, t collect.TraceTuple) {
	if i < 0 || i >= len(j.per) {
		return
	}
	r := j.rounds.Open(t.Seq)
	r.Set(i, t)
	j.finish(r)
}

func (j *Joiner) finish(r *Round) {
	if !r.Complete() {
		return
	}
	m := j.analyze(r)
	j.rounds.Done(r)
	j.emit(m)
}

// analyze fills the scratch with a complete round's metrics: arrivals
// ranked by t1 and departures by t4, each by sorting the key scratch.
func (j *Joiner) analyze(r *Round) RoundMetrics {
	t2 := r.Collective.Start
	t3 := r.Collective.End
	per, keys := j.per, j.keys

	for id, c := range r.Contribs {
		keys[id] = rankKey{stamp: c.Start, id: id}
	}
	sortRankKeys(keys)
	for rank, key := range keys {
		per[key.id].ArrivalRank = rank
	}
	last := keys[len(keys)-1]

	for id, c := range r.Contribs {
		keys[id] = rankKey{stamp: c.End, id: id}
	}
	sortRankKeys(keys)
	for rank, key := range keys {
		per[key.id].DepartureRank = rank
	}
	first := keys[0]

	for id, c := range r.Contribs {
		p := &per[id]
		p.Contributor = id
		p.Down = time.Duration(t2 - c.Start)
		p.Up = time.Duration(c.End - t3)
		p.Total = time.Duration((c.End - c.Start) - (t3 - t2))
		p.ArrivalWait = time.Duration(last.stamp - c.Start)
		p.DepartureWait = time.Duration(c.End - first.stamp)
	}
	return RoundMetrics{Seq: r.Seq, Per: per, LastArrival: last.id, FirstDepart: first.id}
}
