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

// Joiner assembles rounds from the tuple streams of one collective
// wrapper's event collectors — k contributor collectors plus the
// collective collector — over a Rounds table, and analyzes each round
// as it completes.
type Joiner struct {
	rounds *Rounds
	emit   func(RoundMetrics)
	// Analysis scratch, fan-in long: a completed round is analyzed in
	// place, so a warm joiner allocates nothing per round.
	per []ContributorMetrics
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
		per: make([]ContributorMetrics, k),
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

// analyze fills the scratch with a complete round's metrics. One pass
// finds the last arrival (largest t1, ties to the higher id) and the
// first departure (smallest t4, ties to the lower id); a second fills
// each contributor's figures against them.
func (j *Joiner) analyze(r *Round) RoundMetrics {
	t2 := r.Collective.Start
	t3 := r.Collective.End
	cs := r.Contribs

	last, first := 0, 0
	for id, c := range cs {
		if c.Start >= cs[last].Start {
			last = id
		}
		if c.End < cs[first].End {
			first = id
		}
	}
	t1l, t4f := cs[last].Start, cs[first].End

	per := j.per
	for id, c := range cs {
		p := &per[id]
		p.Contributor = id
		p.Down = time.Duration(t2 - c.Start)
		p.Up = time.Duration(c.End - t3)
		p.Total = time.Duration((c.End - c.Start) - (t3 - t2))
		p.ArrivalWait = time.Duration(t1l - c.Start)
		p.DepartureWait = time.Duration(c.End - t4f)
	}
	return RoundMetrics{Seq: r.Seq, Per: per, LastArrival: last, FirstDepart: first}
}
