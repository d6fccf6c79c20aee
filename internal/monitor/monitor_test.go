package monitor

import (
	"sync"
	"testing"
	"time"

	"eventspace/internal/analysis"
	"eventspace/internal/cluster"
	"eventspace/internal/collect"
	"eventspace/internal/cosched"
	"eventspace/internal/escope"
	"eventspace/internal/hrtime"
	"eventspace/internal/paths"
	"eventspace/internal/vclock"
	"eventspace/internal/vnet"
)

// virtual runs the rest of the test on the discrete-event clock, so
// monitors and applications run on modelled time: every delay takes its
// exact modelled value and no real time. The test goroutine is a driver:
// it polls with waitFor and starts model goroutines with vclock.Go.
func virtual(t *testing.T) {
	t.Helper()
	vclock.Enable(0, vclock.DefaultSeed)
	t.Cleanup(func() {
		vclock.Quiesce(10 * time.Second)
		vclock.Disable()
	})
}

// buildRig creates a 3-host Tin testbed with an instrumented tree, wiring
// the given cosched set (may be nil).
func buildRig(t *testing.T, cs *cosched.Set) (*cluster.Testbed, *cluster.Tree) {
	t.Helper()
	tb, err := cluster.NewTestbed(cluster.SingleTin(3))
	if err != nil {
		t.Fatal(err)
	}
	spec := cluster.TreeSpec{Name: "T", Fanout: 8, ThreadsPerHost: 1, Instrument: true, TraceBufCap: 512}
	if cs != nil {
		spec.Notifier = func(h *vnet.Host) paths.CollectiveNotifier { return cs.For(h) }
	}
	tree, err := cluster.BuildTree(tb, spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tree.Close)
	return tb, tree
}

// runApp drives the tree's thread ports for rounds iterations; slowPort
// (if >= 0) sleeps before contributing, inducing a load imbalance.
func runApp(t *testing.T, tree *cluster.Tree, rounds, slowPort int, delay time.Duration) {
	t.Helper()
	var wg sync.WaitGroup
	for i, p := range tree.Ports {
		wg.Add(1)
		vclock.Go(func() {
			defer wg.Done()
			ctx := &paths.Ctx{Thread: p.Name}
			for r := 0; r < rounds; r++ {
				if i == slowPort {
					hrtime.Sleep(delay)
				}
				if _, err := p.Entry.Op(ctx, paths.Request{Kind: paths.OpWrite, Value: 1}); err != nil {
					t.Errorf("port %s: %v", p.Name, err)
					return
				}
			}
		})
	}
	wg.Wait()
}

func TestLBJoinFindsLastArrival(t *testing.T) {
	j := newLBJoin(3, lbMaxPending)
	if _, done := j.add(0, collect.TraceTuple{Seq: 0, Start: 10}); done {
		t.Fatal("done with 1/3")
	}
	if _, done := j.add(1, collect.TraceTuple{Seq: 0, Start: 30}); done {
		t.Fatal("done with 2/3")
	}
	last, done := j.add(2, collect.TraceTuple{Seq: 0, Start: 20})
	if !done || last != 1 {
		t.Fatalf("last = %d done = %v", last, done)
	}
	// Tie: higher contributor wins deterministically.
	j.add(0, collect.TraceTuple{Seq: 1, Start: 5})
	j.add(1, collect.TraceTuple{Seq: 1, Start: 5})
	last, done = j.add(2, collect.TraceTuple{Seq: 1, Start: 5})
	if !done || last != 2 {
		t.Fatalf("tie last = %d", last)
	}
}

func TestLBJoinEvicts(t *testing.T) {
	j := newLBJoin(2, 4)
	for seq := uint32(0); seq < 20; seq++ {
		j.add(0, collect.TraceTuple{Seq: seq})
	}
	if j.rounds.Pending() > 4 {
		t.Fatalf("pending = %d", j.rounds.Pending())
	}
	if j.rounds.Lost() != 16 {
		t.Fatalf("lost = %d", j.rounds.Lost())
	}
}

func TestLoadBalanceRejectsUninstrumented(t *testing.T) {
	virtual(t)
	tb, _ := cluster.NewTestbed(cluster.SingleTin(2))
	tree, err := cluster.BuildTree(tb, cluster.TreeSpec{Name: "U", ThreadsPerHost: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if _, err := NewLoadBalance(tb, tree, SingleScope, DefaultConfig(), nil, nil); err == nil {
		t.Fatal("uninstrumented tree accepted")
	}
	if _, err := NewStatsm(tb, tree, DefaultConfig(), nil, nil); err == nil {
		t.Fatal("statsm accepted uninstrumented tree")
	}
}

func TestModeString(t *testing.T) {
	if SingleScope.String() != "single-scope" || Distributed.String() != "distributed" {
		t.Fatal("mode names wrong")
	}
}

// waitFor polls cond from the driver every 2 ms of modelled time until
// it holds, failing after d of modelled time.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := hrtime.Now() + int64(d)
	for !cond() {
		if hrtime.Now() > deadline {
			t.Fatal(msg)
		}
		hrtime.SleepOutside(2 * time.Millisecond)
	}
}

func TestLoadBalanceSingleScopeFindsImbalance(t *testing.T) {
	virtual(t)
	tb, tree := buildRig(t, nil)
	cfg := DefaultConfig()
	cfg.AnalysisCostPerTuple = 0
	cfg.PullInterval = 5 * time.Millisecond
	lb, err := NewLoadBalance(tb, tree, SingleScope, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()
	const rounds = 60
	// Port 0 is the root host's thread: make it the straggler at the
	// root node.
	runApp(t, tree, rounds, 0, 10*time.Millisecond)
	// Everything was produced; let the monitor drain. In modelled time
	// the slow thread arrives last at the root in every round.
	waitFor(t, 10*time.Second, func() bool {
		root := tree.Nodes[0]
		return lb.Weighted().Counts(root.Name)[0] >= rounds
	}, "single-scope monitor did not attribute last arrivals to the slow thread")
	lb.Stop()
	lb.Stop() // idempotent
	if lb.mode != SingleScope {
		t.Fatal("mode wrong")
	}
	root := tree.Nodes[0]
	counts := lb.Weighted().Counts(root.Name)
	if counts[0] != rounds || counts[1] != 0 || counts[2] != 0 {
		t.Fatalf("slow thread not the last arriver of every round: %v", counts)
	}
	if lb.RoundsObserved() == 0 {
		t.Fatal("no rounds observed")
	}
	if rate := lb.GatherRate(); rate <= 0 || rate > 1 {
		t.Fatalf("gather rate = %v", rate)
	}
}

// TestLoadBalanceSummaryOnlySkipsFold: in summary-only mode the gather
// thread counts each batch and leaves the weighted tree alone; back in
// strict mode it folds again and stops counting skipped batches.
func TestLoadBalanceSummaryOnlySkipsFold(t *testing.T) {
	virtual(t)
	tb, tree := buildRig(t, nil)
	cfg := DefaultConfig()
	cfg.AnalysisCostPerTuple = 0
	cfg.PullInterval = 5 * time.Millisecond
	lb, err := NewLoadBalance(tb, tree, SingleScope, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()
	defer lb.Stop()

	lb.SetScopeMode(escope.ModeSummary)
	runApp(t, tree, 20, -1, 0)
	waitFor(t, 10*time.Second, func() bool { return lb.SummarizedBatches() > 0 },
		"summary-only never counted a batch")
	if n := lb.RoundsObserved(); n != 0 {
		t.Fatalf("summary-only folded %d rounds into the weighted tree", n)
	}

	lb.SetScopeMode(escope.ModeStrict)
	runApp(t, tree, 20, -1, 0)
	waitFor(t, 10*time.Second, func() bool { return lb.RoundsObserved() > 0 },
		"strict mode never folded again")
	skipped, folded := lb.SummarizedBatches(), lb.RoundsObserved()
	runApp(t, tree, 20, -1, 0)
	waitFor(t, 10*time.Second, func() bool { return lb.RoundsObserved() > folded },
		"strict mode stopped folding")
	lb.Stop()
	if n := lb.SummarizedBatches(); n != skipped {
		t.Fatalf("strict mode counted %d more skipped batches", n-skipped)
	}
}

func TestLoadBalanceDistributedTracksCumulativeState(t *testing.T) {
	virtual(t)
	tb, tree := buildRig(t, nil)
	cfg := DefaultConfig()
	cfg.AnalysisCostPerTuple = 0
	cfg.PullInterval = 5 * time.Millisecond
	cfg.AnalysisInterval = 2 * time.Millisecond
	lb, err := NewLoadBalance(tb, tree, Distributed, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()
	const rounds = 60
	runApp(t, tree, rounds, 0, 10*time.Millisecond)
	root := tree.Nodes[0]
	waitFor(t, 10*time.Second, func() bool {
		return lb.Weighted().Counts(root.Name)[0] >= rounds
	}, "distributed monitor did not reach the expected last-arrival count")
	lb.Stop()
	counts := lb.Weighted().Counts(root.Name)
	var total uint64
	for _, v := range counts {
		total += v
	}
	// Cumulative semantics: counts across contributors sum to at most
	// the number of rounds (every round has exactly one last arriver).
	if total > rounds {
		t.Fatalf("total last arrivals %d > rounds %d", total, rounds)
	}
	if r := lb.TraceReadRate(); r <= 0 || r > 1 {
		t.Fatalf("trace read rate = %v", r)
	}
	if r := lb.GatherRate(); r <= 0 || r > 1 {
		t.Fatalf("gather rate = %v", r)
	}
}

func TestStatsmComputesWrapperAndThreadStats(t *testing.T) {
	if testing.Short() {
		t.Skip("full statsm pipeline takes several seconds")
	}
	virtual(t)
	tb, tree := buildRig(t, nil)
	cfg := DefaultConfig()
	cfg.AnalysisCostPerTuple = 0
	cfg.Strategy = cosched.None
	sm, err := NewStatsm(tb, tree, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sm.Start()
	const rounds = 50
	runApp(t, tree, rounds, 1, 2*time.Millisecond)
	waitFor(t, 10*time.Second, func() bool {
		return sm.RoundsAnalyzed() >= uint64(rounds*len(tree.Nodes)*8/10)
	}, "statsm analyzed too few rounds")
	root := tree.Nodes[0]
	rootID := root.CollectiveEC.ID()
	// A gather can land between two of the five record writes, so wait
	// for every kind, not just one.
	kinds := []int{analysis.KindDown, analysis.KindUp, analysis.KindTotal, analysis.KindArrivalWait, analysis.KindDepartureWait}
	waitFor(t, 10*time.Second, func() bool {
		for _, kind := range kinds {
			if _, ok := sm.Tree().Get(rootID, kind); !ok {
				return false
			}
		}
		return true
	}, "wrapper-statistics records did not all reach the front-end")
	// The thread and TCP records travel on the second gather thread;
	// wait for them too before stopping it. Per-thread records are
	// published on every other analysis batch only, so a host whose last
	// batch with new rounds was an odd one has published none: drive one
	// more round at a time until a batch of the right parity sees it.
	c0 := root.ContribECs[0].ID()
	waitFor(t, 10*time.Second, func() bool {
		if _, ok := sm.Tree().Get(c0, analysis.KindArrivalWait); ok {
			return true
		}
		runApp(t, tree, 1, -1, 0)
		return false
	}, "no per-thread arrival-wait record")
	linkID := tree.Links[0].ClientEC.ID()
	waitFor(t, 10*time.Second, func() bool {
		rec, ok := sm.Tree().Get(linkID, analysis.KindTCP)
		return ok && rec.Count > 0
	}, "no TCP stats record at the front-end")
	sm.Stop()
	sm.Stop() // idempotent

	for _, kind := range kinds {
		rec, ok := sm.Tree().Get(rootID, kind)
		if !ok {
			t.Fatalf("no %s record for root", analysis.KindName(kind))
		}
		if rec.Count == 0 {
			t.Fatalf("%s record has zero samples", analysis.KindName(kind))
		}
	}
	// Total latency must be positive and >= up/down in the mean.
	tot, _ := sm.Tree().Get(rootID, analysis.KindTotal)
	if tot.Mean <= 0 {
		t.Fatalf("total mean = %v", tot.Mean)
	}
	// TCP statistics were computed at the destination host.
	if sm.TCPSamples() == 0 {
		t.Fatal("no TCP latency samples")
	}
	if r := sm.WrapperGatherRate(); r <= 0 || r > 1 {
		t.Fatalf("wrapper gather rate = %v", r)
	}
	if r := sm.ThreadGatherRate(); r <= 0 || r > 1 {
		t.Fatalf("thread gather rate = %v", r)
	}
	if r := sm.TraceReadRate(); r <= 0 || r > 1 {
		t.Fatalf("trace read rate = %v", r)
	}
}

func TestStatsmWithCoscheduling(t *testing.T) {
	virtual(t)
	cs := cosched.NewSet(cosched.AfterUnblock)
	tb, tree := buildRig(t, cs)
	cfg := DefaultConfig()
	cfg.AnalysisCostPerTuple = 0
	sm, err := NewStatsm(tb, tree, cfg, cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sm.Start()
	const rounds = 40
	runApp(t, tree, rounds, -1, 0)
	// Analysis threads only run in post-broadcast windows; they must
	// still process (nearly) everything while the app runs. Drive a few
	// more rounds so pending windows flush.
	waitFor(t, 10*time.Second, func() bool {
		if sm.RoundsAnalyzed() >= uint64((rounds-2)*len(tree.Nodes)) {
			return true
		}
		runApp(t, tree, 1, -1, 0)
		return false
	}, "coscheduled statsm did not analyze rounds")
	sm.Stop()
	// The controllers saw windows.
	if cs.For(tree.Nodes[0].Host).Windows() == 0 {
		t.Fatal("no coscheduling windows opened")
	}
}

func TestWeightedTree(t *testing.T) {
	w := NewWeightedTree()
	w.Add("n", 0, 2)
	w.Add("n", 0, 3)
	w.Add("n", 1, 1)
	if w.Counts("n")[0] != 5 || w.Counts("n")[1] != 1 {
		t.Fatal("Add counts wrong")
	}
	w.row("n").set(0, 7)
	if w.Counts("n")[0] != 7 {
		t.Fatal("set did not overwrite")
	}
	if w.Total() != 8 {
		t.Fatalf("Total = %d", w.Total())
	}
	if len(w.Nodes()) != 1 {
		t.Fatal("Nodes wrong")
	}
	if w.Counts("ghost")[0] != 0 {
		t.Fatal("ghost count nonzero")
	}
	c := w.Counts("n")
	c[0] = 999
	if w.Counts("n")[0] == 999 {
		t.Fatal("Counts returned a live reference")
	}
}

func TestAnalysisTree(t *testing.T) {
	a := NewAnalysisTree()
	r1 := analysis.StatsRecord{ID: 1, Kind: analysis.KindUp, Count: 1, Mean: 10}
	r2 := analysis.StatsRecord{ID: 1, Kind: analysis.KindUp, Count: 2, Mean: 20}
	a.Update(r1)
	a.Update(r2)
	got, ok := a.Get(1, analysis.KindUp)
	if !ok || got.Mean != 20 {
		t.Fatalf("Get = %+v %v", got, ok)
	}
	if _, ok := a.Get(2, analysis.KindUp); ok {
		t.Fatal("ghost record")
	}
	if len(a.IDs()) != 1 || a.updates != 2 {
		t.Fatal("IDs/Updates wrong")
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Strategy != cosched.AfterUnblock {
		t.Fatal("defaults diverge from the paper's final configuration")
	}
	if cfg.intermediateCap() != 5000 {
		t.Fatal("derived defaults wrong")
	}
	cfg.IntermediateCap = 10
	if cfg.intermediateCap() != 10 {
		t.Fatal("overrides ignored")
	}
}
