package analysis

import (
	"fmt"

	"eventspace/internal/collect"
)

// Round is one pending collective operation: the collective wrapper's
// tuple (t2 = Start, t3 = End) plus each contributor's tuple
// (t1_i = Start, t4_i = End), joined on the operation sequence number.
// It is a slot of a Rounds table: Contribs is fan-in long and indexed
// by contributor id, entry i is meaningful only once Has(i). A slot is
// recycled when its round completes or is evicted, so a *Round is valid
// only until the table's next Open, Done or Reset.
type Round struct {
	Seq        uint32
	Collective collect.TraceTuple // valid when HaveColl
	HaveColl   bool
	Contribs   []collect.TraceTuple

	have []bool // presence bits, parallel to Contribs
	n    int    // contributors present

	// Live rounds form a FIFO list through their slots, oldest first:
	// the eviction order, and the order State lists rounds in.
	prev, next *Round
	chain      *Round // next live round in the same index bucket; next idle slot once retired
}

func newRound(k int) *Round {
	return &Round{Contribs: make([]collect.TraceTuple, k), have: make([]bool, k)}
}

// Has reports whether contributor i's tuple has arrived.
func (r *Round) Has(i int) bool { return r.have[i] }

// Set stores contributor i's tuple; a repeated tuple overwrites the
// earlier one. i must lie in [0, fan-in) — the joins check it.
//
//lint:hotpath one store per folded contributor tuple
func (r *Round) Set(i int, t collect.TraceTuple) {
	if !r.have[i] {
		r.have[i] = true
		r.n++
	}
	r.Contribs[i] = t
}

// Full reports whether every contributor tuple has arrived.
func (r *Round) Full() bool { return r.n == len(r.Contribs) }

// Complete reports whether all contributor tuples and the collective
// tuple have arrived.
func (r *Round) Complete() bool { return r.HaveColl && r.Full() }

// Next returns the round opened after r among the live ones, nil at the
// newest.
func (r *Round) Next() *Round { return r.next }

// ContribStates returns the contributor tuples present, in id order
// (nil when none): the round's share of a snapshot.
func (r *Round) ContribStates() []ContribState {
	if r.n == 0 {
		return nil
	}
	out := make([]ContribState, 0, r.n)
	for i, ok := range r.have {
		if ok {
			out = append(out, ContribState{ID: int32(i), Tuple: r.Contribs[i]})
		}
	}
	return out
}

// Rounds is the pending-round table under both round joins (Joiner and
// the load-balance monitor's last-arrival join): partial rounds of one
// k-contributor collective keyed by sequence number. Because trace
// buffers are bounded, some rounds never complete; the table keeps at
// most maxPending of them and evicts the oldest, counting it as lost.
//
// Folding a tuple costs one index lookup and one 28-byte store: a
// retired slot goes on the table's own free list (threaded through the
// slots, like everything else here) and the next round takes it from
// there, so a table allocates only while its high-water mark of pending
// rounds rises — a garbage collection in between changes nothing. Both
// the index and the eviction order are chains through the live slots,
// so they hold exactly Pending() entries however many rounds have
// passed through.
//
// A Rounds is not safe for concurrent use: each table is driven by one
// analysis thread, or under its owner's lock.
type Rounds struct {
	k          int
	maxPending int
	lost       uint64
	pending    int
	// index finds a live round by sequence number: bucket seq&mask
	// heads a chain through the slots. Sequence numbers are consecutive
	// and there is a bucket for every round the bound admits, so a
	// chain is one slot long.
	index  []*Round
	mask   uint32
	oldest *Round
	newest *Round
	free   *Round // idle slots, linked through chain
	// grow makes a slot when the free list is empty: the table's one
	// allocation, which a table that has seen its high-water mark of
	// pending rounds never reaches (TestRoundsWarmTableSurvivesGC). It
	// is a function value, as the pool's New was, so that the hot-path
	// analysis — which follows package-local calls — holds Open and the
	// folds above it to allocating nothing else.
	grow func() *Round
}

// maxIndex caps the index: the eviction bound can come from a snapshot
// file, and chains merely grow longer past it.
const maxIndex = 4096

// NewRounds creates a table for a k-contributor collective holding at
// most maxPending partial rounds.
func NewRounds(k, maxPending int) *Rounds {
	size := 1
	for size < maxPending && size < maxIndex {
		size *= 2
	}
	return &Rounds{
		k: k, maxPending: maxPending, index: make([]*Round, size), mask: uint32(size - 1),
		grow: func() *Round { return newRound(k) },
	}
}

// K returns the fan-in.
func (t *Rounds) K() int { return t.k }

// MaxPending returns the eviction bound.
func (t *Rounds) MaxPending() int { return t.maxPending }

// Lost reports how many partial rounds were evicted.
func (t *Rounds) Lost() uint64 { return t.lost }

// Pending reports how many partial rounds are buffered.
func (t *Rounds) Pending() int { return t.pending }

// Oldest returns the longest-pending round (nil when none); follow
// Round.Next for the rest in insertion order.
func (t *Rounds) Oldest() *Round { return t.oldest }

// Open returns seq's pending round, starting one if there is none — a
// tuple of a round that already completed starts it afresh. Starting a
// round beyond maxPending evicts the oldest.
//
//lint:hotpath one lookup per folded tuple; slots come from the free list
func (t *Rounds) Open(seq uint32) *Round {
	if r := t.find(seq); r != nil {
		return r
	}
	r := t.start(seq)
	if t.pending > t.maxPending {
		t.lost++
		t.Done(t.oldest)
	}
	return r
}

func (t *Rounds) find(seq uint32) *Round {
	for r := t.index[seq&t.mask]; r != nil; r = r.chain {
		if r.Seq == seq {
			return r
		}
	}
	return nil
}

// start takes a slot for seq and queues it as the newest live round.
func (t *Rounds) start(seq uint32) *Round {
	r := t.free
	if r == nil {
		r = t.grow()
	} else {
		t.free = r.chain
	}
	r.Seq = seq
	bucket := &t.index[seq&t.mask]
	r.chain, *bucket = *bucket, r
	t.pending++
	r.prev = t.newest
	if t.newest != nil {
		t.newest.next = r
	} else {
		t.oldest = r
	}
	t.newest = r
	return r
}

// Done retires a live round — completed or evicted — and recycles its
// slot.
//
//lint:hotpath once per completed round
func (t *Rounds) Done(r *Round) {
	link := &t.index[r.Seq&t.mask]
	for *link != r {
		link = &(*link).chain
	}
	*link = r.chain
	t.pending--
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		t.oldest = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		t.newest = r.prev
	}
	r.prev, r.next = nil, nil
	r.Collective, r.HaveColl = collect.TraceTuple{}, false // the zero tuple is what a snapshot stores
	r.n = 0
	clear(r.have)
	r.chain, t.free = t.free, r
}

// Reset empties the table and installs a snapshot's eviction bound
// (kept when maxPending < 1) and loss count; Load then refills it.
func (t *Rounds) Reset(maxPending int, lost uint64) {
	for t.oldest != nil {
		t.Done(t.oldest)
	}
	if maxPending >= 1 {
		t.maxPending = maxPending
	}
	t.lost = lost
}

// Load queues one snapshotted round behind those already loaded — a
// snapshot is restored whole, nothing is evicted. It refuses what a
// fixed slot cannot hold: a contributor id outside [0, k) or repeated
// within the round, and a sequence number already pending. Snapshots
// come from files.
func (t *Rounds) Load(seq uint32, contribs []ContribState) (*Round, error) {
	if t.find(seq) != nil {
		return nil, fmt.Errorf("analysis: round state lists round %d twice", seq)
	}
	r := t.start(seq)
	for _, c := range contribs {
		if c.ID < 0 || int(c.ID) >= t.k {
			return nil, fmt.Errorf("analysis: round %d state: contributor id %d outside [0, %d)", seq, c.ID, t.k)
		}
		if r.Has(int(c.ID)) {
			return nil, fmt.Errorf("analysis: round %d state: contributor id %d repeated", seq, c.ID)
		}
		r.Set(int(c.ID), c.Tuple)
	}
	return r, nil
}
