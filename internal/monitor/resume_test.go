package monitor

import (
	"reflect"
	"testing"
	"time"

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
	fastScale(t)
	for _, mode := range []LoadBalanceMode{SingleScope, Distributed} {
		t.Run(mode.String(), func(t *testing.T) {
			tb, tree := buildRig(t, nil)
			cfg := DefaultConfig()
			cfg.AnalysisCostPerTuple = 0
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

// TestLoadBalanceResumeFloorsDeduplicate: a replacement seeded from a
// resume handoff re-reads its contributor buffers from the start, and the
// per-node floor alone keeps the count exact. When the handoff is taken
// the buffers hold five whole rounds it counted and a sixth that all but
// the last contributor had joined; the last contributor's tuple for it
// and two more whole rounds arrive after the replacement starts. The
// replacement counts none of the first five again and the sixth once,
// and ends with the weighted tree a Replay fed every tuple computes.
func TestLoadBalanceResumeFloorsDeduplicate(t *testing.T) {
	fastScale(t)
	tb, tree := buildRig(t, nil)
	n := tree.Nodes[0]
	k := len(n.ContribECs)
	roster := []ReplayNode{{Name: n.Name, Contributors: make([]uint32, k)}}
	for _, ec := range n.ContribECs {
		roster[0].Contributors[ec.Meta().Contributor] = ec.ID()
	}
	handoff, err := NewReplay(roster, 0)
	if err != nil {
		t.Fatal(err)
	}
	all, err := NewReplay(roster, 0)
	if err != nil {
		t.Fatal(err)
	}
	// write puts contributor c's tuple for round seq in its trace buffer
	// (counted: the handoff has seen it too); the last arriver rotates
	// with the round.
	write := func(seq uint32, c int, counted bool) {
		start := int64(seq)*1000 + int64((c+int(seq))%k)*10
		tu := collect.TraceTuple{ECID: n.ContribECs[c].ID(), Op: paths.OpWrite, Seq: seq, Start: start, End: start + 500}
		var rec [collect.TupleSize]byte
		tu.EncodeTo(rec[:])
		if _, err := n.ContribECs[c].Buffer().WriteCopy(rec[:]); err != nil {
			t.Fatal(err)
		}
		all.Feed(tu)
		if counted {
			handoff.Feed(tu)
		}
	}
	for seq := uint32(1); seq <= 5; seq++ {
		for c := 0; c < k; c++ {
			write(seq, c, true)
		}
	}
	for c := 0; c < k-1; c++ {
		write(6, c, true)
	}
	resume := handoff.Resume()
	if resume.Floors[n.Name] != 5 || resume.Weighted.Total() != 5 {
		t.Fatalf("handoff floor %d after %d rounds, want 5 and 5", resume.Floors[n.Name], resume.Weighted.Total())
	}

	cfg := DefaultConfig()
	cfg.AnalysisCostPerTuple = 0
	cfg.PullInterval = time.Millisecond
	lb, err := NewLoadBalance(tb, tree, SingleScope, cfg, nil, resume)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()
	defer lb.Stop()
	write(6, k-1, false)
	for seq := uint32(7); seq <= 8; seq++ {
		for c := 0; c < k; c++ {
			write(seq, c, false)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return lb.RoundsObserved() >= 8 },
		"replacement never counted the half-joined round and the two after it")
	lb.Stop()
	if got := lb.RoundsObserved(); got != 8 {
		t.Fatalf("replacement counted %d rounds, want 8", got)
	}
	if got, want := lb.Weighted().Counts(n.Name), all.Weighted().Counts(n.Name); !reflect.DeepEqual(got, want) {
		t.Fatalf("replacement's weighted tree %v, replay of every tuple %v", got, want)
	}
}
