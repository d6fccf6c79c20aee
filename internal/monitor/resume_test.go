package monitor

import (
	"reflect"
	"testing"
	"time"

	"eventspace/internal/cluster"
	"eventspace/internal/collect"
	"eventspace/internal/escope"
	"eventspace/internal/paths"
)

// TestLoadBalanceRefusedBuildReleasesBuffers: a monitor whose event
// scope is refused (a breaker without health tracking) releases the
// buffers it registered before the refusal — the front-end ones and, in
// distributed mode, each host's intermediate one — so the corrected
// monitor over the same tree can take their names.
func TestLoadBalanceRefusedBuildReleasesBuffers(t *testing.T) {
	virtual(t)
	for _, mode := range []LoadBalanceMode{SingleScope, Distributed} {
		t.Run(mode.String(), func(t *testing.T) {
			tb, tree := buildRig(t, nil)
			cfg := DefaultConfig()
			cfg.AnalysisCostPerTuple = 0
			cfg.LoadBalanceCostPerTuple = 0
			cfg.Breaker = &escope.BreakerPolicy{RoundDeadline: time.Millisecond}
			if _, err := NewLoadBalance(tb, tree, mode, cfg, nil, nil); err == nil {
				t.Fatal("breaker without health accepted")
			}
			cfg.Breaker = nil
			lb, err := NewLoadBalance(tb, tree, mode, cfg, nil, nil)
			if err != nil {
				t.Fatalf("corrected monitor refused: %v", err)
			}
			lb.Stop()
		})
	}
}

// resumeRig is a rig for seeding a replacement load-balance monitor: a
// handoff replay over tree node n's contributors, and a replay fed every
// tuple to hold the replacement's weighted tree to.
type resumeRig struct {
	tb           *cluster.Testbed
	tree         *cluster.Tree
	n            *cluster.Node
	k            int
	handoff, all *Replay
}

func newResumeRig(t *testing.T) *resumeRig {
	t.Helper()
	tb, tree := buildRig(t, nil)
	n := tree.Nodes[0]
	r := &resumeRig{tb: tb, tree: tree, n: n, k: len(n.ContribECs)}
	roster := []ReplayNode{{Name: n.Name, Contributors: make([]uint32, r.k)}}
	for _, ec := range n.ContribECs {
		roster[0].Contributors[ec.Meta().Contributor] = ec.ID()
	}
	var err error
	if r.handoff, err = NewReplay(roster, 0); err != nil {
		t.Fatal(err)
	}
	if r.all, err = NewReplay(roster, 0); err != nil {
		t.Fatal(err)
	}
	return r
}

// write puts contributor c's tuple for round seq in its trace buffer
// (counted: the handoff has seen it too); the last arriver rotates
// with the round.
func (r *resumeRig) write(t *testing.T, seq uint32, c int, counted bool) {
	t.Helper()
	start := int64(seq)*1000 + int64((c+int(seq))%r.k)*10
	tu := collect.TraceTuple{ECID: r.n.ContribECs[c].ID(), Op: paths.OpWrite, Seq: seq, Start: start, End: start + 500}
	var rec [collect.TupleSize]byte
	tu.EncodeTo(rec[:])
	if _, err := r.n.ContribECs[c].Buffer().WriteCopy(rec[:]); err != nil {
		t.Fatal(err)
	}
	r.all.Feed(tu)
	if counted {
		r.handoff.Feed(tu)
	}
}

// replacement starts a single-scope monitor seeded from the handoff.
func (r *resumeRig) replacement(t *testing.T) *LoadBalance {
	t.Helper()
	cfg := DefaultConfig()
	cfg.AnalysisCostPerTuple = 0
	cfg.LoadBalanceCostPerTuple = 0
	cfg.PullInterval = time.Millisecond
	lb, err := NewLoadBalance(r.tb, r.tree, SingleScope, cfg, nil, r.handoff.Resume())
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()
	t.Cleanup(lb.Stop)
	return lb
}

// sameAsAll fails unless the stopped replacement counted rounds rounds
// and ended with the weighted tree a Replay fed every tuple computes.
func (r *resumeRig) sameAsAll(t *testing.T, lb *LoadBalance, rounds uint64) {
	t.Helper()
	if got := lb.RoundsObserved(); got != rounds {
		t.Fatalf("replacement counted %d rounds, want %d", got, rounds)
	}
	if got, want := lb.Weighted().Counts(r.n.Name), r.all.Weighted().Counts(r.n.Name); !reflect.DeepEqual(got, want) {
		t.Fatalf("replacement's weighted tree %v, replay of every tuple %v", got, want)
	}
}

// TestLoadBalanceResumeFloorsDeduplicate: a replacement seeded from a
// resume handoff re-reads its contributor buffers from the start, and the
// per-node floor alone keeps the count exact. When the handoff is taken
// the buffers hold five whole rounds it counted and a sixth that all but
// the last contributor had joined; the last contributor's tuple for it
// and two more whole rounds arrive after the replacement starts. The
// replacement counts none of the first five again and the sixth once,
// and ends with the weighted tree a Replay fed every tuple computes.
func TestLoadBalanceResumeFloorsDeduplicate(t *testing.T) {
	virtual(t)
	r := newResumeRig(t)
	k := r.k
	for seq := uint32(1); seq <= 5; seq++ {
		for c := 0; c < k; c++ {
			r.write(t, seq, c, true)
		}
	}
	for c := 0; c < k-1; c++ {
		r.write(t, 6, c, true)
	}
	if resume := r.handoff.Resume(); resume.Floors[r.n.Name] != 5 || resume.Weighted.Total() != 5 {
		t.Fatalf("handoff floor %d after %d rounds, want 5 and 5", resume.Floors[r.n.Name], resume.Weighted.Total())
	}

	lb := r.replacement(t)
	r.write(t, 6, k-1, false)
	for seq := uint32(7); seq <= 8; seq++ {
		for c := 0; c < k; c++ {
			r.write(t, seq, c, false)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return lb.RoundsObserved() >= 8 },
		"replacement never counted the half-joined round and the two after it")
	lb.Stop()
	r.sameAsAll(t, lb, 8)
}

// TestLoadBalanceResumeFloorAtSeqZero: collectors number rounds from 0,
// so a node whose only completed round is round 0 still has a floor —
// 0 — and a replacement re-reading that round does not count it again.
// Round 1 arrives after the replacement starts; its last arriver is not
// round 0's, so once it is counted the re-read round 0 was folded too.
func TestLoadBalanceResumeFloorAtSeqZero(t *testing.T) {
	virtual(t)
	r := newResumeRig(t)
	k := r.k
	for c := 0; c < k; c++ {
		r.write(t, 0, c, true)
	}
	resume := r.handoff.Resume()
	if floor, ok := resume.Floors[r.n.Name]; !ok || floor != 0 || resume.Weighted.Total() != 1 {
		t.Fatalf("handoff floors %v after %d rounds, want %s: 0 after 1", resume.Floors, resume.Weighted.Total(), r.n.Name)
	}

	lb := r.replacement(t)
	for c := 0; c < k; c++ {
		r.write(t, 1, c, false)
	}
	last1 := k - 2 // the largest (c+1)%k
	waitFor(t, 10*time.Second, func() bool { return lb.Weighted().Counts(r.n.Name)[last1] > 0 },
		"replacement never counted round 1")
	lb.Stop()
	r.sameAsAll(t, lb, 2)
}
