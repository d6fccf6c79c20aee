package eventspace_test

// The façade's runnable programs. Each Example builds a virtual testbed,
// attaches monitors and runs a workload under the discrete-event clock,
// then prints only shape facts: tree sizes, the dominant last arriver,
// coverage, the order of an overhead ladder, which side of 50% a gather
// rate falls. The clock runs ties at one virtual instant in a seeded
// order, but each Example's driver runs beside the model, so exact rates
// and counts are not promised to the digit; cmd/esviz and cmd/esrun
// render the full views.

import (
	"fmt"
	"os"
	"time"

	"eventspace"
)

// The smallest complete EventSpace program: an instrumented 8-way
// allreduce tree on eight Tin hosts, the distributed-analysis
// load-balance monitor, and gsum — every thread contributes to a global
// sum per round.
func Example_quickstart() {
	err := eventspace.RunVirtual(func() error {
		sys, err := eventspace.New(eventspace.SingleTin(8), eventspace.CoschedAfterUnblock)
		if err != nil {
			return err
		}
		defer sys.Close()

		// Every wrapper gets event collectors recording 28-byte trace
		// tuples into bounded buffers.
		tree, err := sys.BuildTree(eventspace.TreeSpec{
			Name: "gsum", Fanout: 8, ThreadsPerHost: 1, Instrument: true, TraceBufCap: 500,
		})
		if err != nil {
			return err
		}
		fmt.Printf("tree: %d collective wrapper, %d links, %d event collectors\n",
			len(tree.Nodes), len(tree.Links), tree.ECCount())

		cfg := eventspace.DefaultMonitorConfig()
		cfg.PullInterval = 400 * time.Microsecond
		cfg.AnalysisInterval = 400 * time.Microsecond
		lb, err := sys.AttachLoadBalance(tree, eventspace.Distributed, cfg)
		if err != nil {
			return err
		}
		if _, err := sys.RunWorkload(eventspace.Workload{
			Trees: []*eventspace.Tree{tree}, Iterations: 500,
		}); err != nil {
			return err
		}
		root := tree.Nodes[0]
		fmt.Printf("last arrivals counted at %s: %t\n", root.Name, len(lb.Weighted().Counts(root.Name)) > 0)
		fmt.Printf("monitor read the trace: %t\n", lb.TraceReadRate() > 0)
		fmt.Printf("gather rate above 50%%: %t\n", lb.GatherRate() > 0.5)
		return nil
	})
	if err != nil {
		fmt.Println(err)
	}
	// Output:
	// tree: 1 collective wrapper, 7 links, 23 event collectors
	// last arrivals counted at gsum/tin-0: true
	// monitor read the trace: true
	// gather rate above 50%: true
}

// Load-balance hunting, section 3's steps (i)-(iii): compute-gsum with
// one thread computing twice as long as the rest, observed by both
// figure-3 variants of the load-balance monitor. Each keeps its own
// cursors into the trace buffers, and both name the root port the
// straggler feeds through as the dominant last arriver.
func Example_loadBalance() {
	err := eventspace.RunVirtual(func() error {
		sys, err := eventspace.New(eventspace.SingleTin(12), eventspace.CoschedAfterUnblock)
		if err != nil {
			return err
		}
		defer sys.Close()
		tree, err := sys.BuildTree(eventspace.TreeSpec{
			Name: "cg", Fanout: 8, ThreadsPerHost: 1, Instrument: true, TraceBufCap: 400,
		})
		if err != nil {
			return err
		}
		fmt.Printf("tree: %d collective wrappers, %d links\n", len(tree.Nodes), len(tree.Links))

		cfg := eventspace.DefaultMonitorConfig()
		cfg.PullInterval = 400 * time.Microsecond
		cfg.AnalysisInterval = 400 * time.Microsecond
		single, err := sys.AttachLoadBalance(tree, eventspace.SingleScope, cfg)
		if err != nil {
			return err
		}
		distributed, err := sys.AttachLoadBalance(tree, eventspace.Distributed, cfg)
		if err != nil {
			return err
		}

		// Thread 7's extra compute is large enough to outweigh the
		// tree-depth skew of the deeper sub-tree feeds.
		const compute = 400 * time.Microsecond
		if _, err := sys.RunWorkload(eventspace.Workload{
			Trees: []*eventspace.Tree{tree}, Iterations: 500, Compute: compute,
			Delay: func(thread, iteration int) time.Duration {
				if thread == 7 {
					return compute
				}
				return 0
			},
		}); err != nil {
			return err
		}

		// Step (i): the contributor dominating the root's last-arrival
		// counts is the load-balance problem.
		root := tree.Nodes[0]
		verdict := func(variant string, counts map[int]uint64, rate float64) {
			worst, most := -1, uint64(0)
			for c, n := range counts {
				if n > most {
					worst, most = c, n
				}
			}
			fmt.Printf("%s: contributor %d of %s arrives last, gather rate above 50%%: %t\n",
				variant, worst, root.Name, rate > 0.5)
		}
		verdict("single scope", single.Weighted().Counts(root.Name), single.GatherRate())
		verdict("distributed", distributed.Weighted().Counts(root.Name), distributed.GatherRate())
		return nil
	})
	if err != nil {
		fmt.Println(err)
	}
	// Output:
	// tree: 4 collective wrappers, 11 links
	// single scope: contributor 4 of cg/tin-0 arrives last, gather rate above 50%: true
	// distributed: contributor 4 of cg/tin-0 arrives last, gather rate above 50%: true
}

// Statistics monitoring with coscheduling, section 6.3.1: gsum over two
// trees, the first monitored by statsm, with analysis threads
// free-running, under coscheduling strategy 1, and under strategy 2.
// Coscheduling cut the paper's overhead from 9% to 1%, and the run
// reproduces the whole ladder: free-running above strategy 1 above
// strategy 2. The last step rests on who takes a CPU slot at the instant
// a broadcast unblocks, a tie the clock breaks by its seed; under the
// default seed (first ready, first run) the application does.
func Example_statsm() {
	const rounds = 600
	// gsum alternates between two identical trees, one allreduce per
	// iteration; only the first is monitored, as in the paper.
	type result struct {
		took            time.Duration
		wrapper, thread float64 // statsm's two gather rates (figure 4)
		analysed        bool    // rounds analysed and TCP latencies sampled
	}
	run := func(strategy eventspace.Strategy) (r result, err error) {
		err = eventspace.RunVirtual(func() error {
			sys, err := eventspace.New(eventspace.SingleTin(16), strategy)
			if err != nil {
				return err
			}
			defer sys.Close()
			var trees []*eventspace.Tree
			for _, name := range []string{"g1", "g2"} {
				tr, err := sys.BuildTree(eventspace.TreeSpec{
					Name: name, Fanout: 8, ThreadsPerHost: 1,
					Instrument: true, TraceBufCap: rounds / 5,
				})
				if err != nil {
					return err
				}
				trees = append(trees, tr)
			}
			cfg := eventspace.DefaultMonitorConfig()
			cfg.Strategy = strategy
			cfg.PullInterval = 400 * time.Microsecond
			cfg.IntermediateCap = rounds / 5
			sm, err := sys.AttachStatsm(trees[0], cfg)
			if err != nil {
				return err
			}
			if r.took, err = sys.RunWorkload(eventspace.Workload{Trees: trees, Iterations: rounds}); err != nil {
				return err
			}
			r.wrapper, r.thread = sm.WrapperGatherRate(), sm.ThreadGatherRate()
			r.analysed = sm.RoundsAnalyzed() > 0 && sm.TCPSamples() > 0
			return nil
		})
		return r, err
	}

	// The three runs differ only in when analysis threads run, so the
	// longer run is the one the monitor cost more.
	var runs []result
	for _, s := range []eventspace.Strategy{
		eventspace.CoschedNone, eventspace.CoschedAfterSend, eventspace.CoschedAfterUnblock,
	} {
		r, err := run(s)
		if err != nil {
			fmt.Println(err)
			return
		}
		runs = append(runs, r)
	}
	fmt.Printf("overhead free-running > coscheduling 1: %t\n", runs[0].took > runs[1].took)
	fmt.Printf("overhead free-running > coscheduling 2: %t\n", runs[0].took > runs[2].took)
	fmt.Printf("overhead coscheduling 1 > coscheduling 2: %t\n", runs[1].took > runs[2].took)
	// Under strategy 2: the per-wrapper gather discards tuples, the
	// per-thread one keeps up.
	last := runs[2]
	fmt.Printf("rounds analysed, TCP latencies sampled: %t\n", last.analysed)
	fmt.Printf("wrapper statistics gather rate above 50%%: %t\n", last.wrapper > 0.5)
	fmt.Printf("per-thread statistics gather rate above 50%%: %t\n", last.thread > 0.5)
	// Output:
	// overhead free-running > coscheduling 1: true
	// overhead free-running > coscheduling 2: true
	// overhead coscheduling 1 > coscheduling 2: true
	// rounds analysed, TCP latencies sampled: true
	// wrapper statistics gather rate above 50%: false
	// per-thread statistics gather rate above 50%: true
}

// WAN multi-cluster monitoring, section 8: three Tin and three Iron
// sub-clusters spread over the Longcut trace sites run gsum over a tree
// whose inter-cluster stage is a MagPIe-style all-to-all exchange.
// Sequential gathering suffices: the monitored operation is latency
// bound, so each pull's WAN round trips overlap whole collective rounds.
func Example_wanMultiCluster() {
	err := eventspace.RunVirtual(func() error {
		sys, err := eventspace.New(eventspace.WANMulti(4, 4, 2005, 0), eventspace.CoschedAfterUnblock)
		if err != nil {
			return err
		}
		defer sys.Close()
		fmt.Printf("testbed: %d sub-clusters\n", len(sys.Testbed().Clusters))

		tree, err := sys.BuildTree(eventspace.TreeSpec{
			Name: "wan", Fanout: 8, ThreadsPerHost: 1,
			WANAllToAll: true, Instrument: true, TraceBufCap: 100,
		})
		if err != nil {
			return err
		}
		fmt.Printf("tree: %d collective wrappers, %d all-to-all participants\n", len(tree.Nodes), len(tree.Exchanges))

		// The analysis threads pace their cumulative intermediate results
		// to the slow WAN rounds.
		cfg := eventspace.DefaultMonitorConfig()
		cfg.GatewayHelpers, cfg.RootHelpers = 0, 0
		cfg.PullInterval = time.Millisecond
		cfg.AnalysisInterval = 25 * time.Millisecond
		cfg.ReadBatch = 5
		cfg.IntermediateCap = 100
		lb, err := sys.AttachLoadBalance(tree, eventspace.Distributed, cfg)
		if err != nil {
			return err
		}
		const rounds = 150
		took, err := sys.RunWorkload(eventspace.Workload{Trees: []*eventspace.Tree{tree}, Iterations: rounds})
		if err != nil {
			return err
		}
		fmt.Printf("allreduce over 10 ms (paper: ~65 ms): %t\n", took/rounds > 10*time.Millisecond)
		fmt.Printf("sub-cluster wrappers observed: %d\n", len(lb.Weighted().Nodes()))
		fmt.Printf("sequential WAN gathering rate above 50%%: %t\n", lb.GatherRate() > 0.5)
		return nil
	})
	if err != nil {
		fmt.Println(err)
	}
	// Output:
	// testbed: 6 sub-clusters
	// tree: 6 collective wrappers, 6 all-to-all participants
	// allreduce over 10 ms (paper: ~65 ms): true
	// sub-cluster wrappers observed: 6
	// sequential WAN gathering rate above 50%: true
}

// Chaos monitoring: compute-gsum on a LAN multi-cluster, observed by a
// load-balance monitor with retrying stubs, health guards and straggler
// breakers. A gateway crash is repaired at runtime by re-parenting its
// hosts; a 100x straggler is cut off by walking the degradation ladder;
// a crashed compute host shows up as missing coverage and comes back on
// its own after a restart — DESIGN.md's "Fault model", "Runtime
// reconfiguration" and "Degraded monitoring modes".
func Example_chaos() {
	err := eventspace.RunVirtual(func() error {
		sys, err := eventspace.New(eventspace.LANMulti(4, 3), eventspace.CoschedAfterUnblock)
		if err != nil {
			return err
		}
		defer sys.Close()
		tree, err := sys.BuildTree(eventspace.TreeSpec{
			Name: "cg", Fanout: 8, ThreadsPerHost: 1, Instrument: true, TraceBufCap: 400,
		})
		if err != nil {
			return err
		}

		cfg := eventspace.DefaultMonitorConfig()
		cfg.PullInterval = 400 * time.Microsecond
		cfg.Health = &eventspace.HealthPolicy{DeadAfter: 2, ProbeBase: 2 * time.Millisecond, ProbeMax: 20 * time.Millisecond}
		cfg.Retry = &eventspace.RetryPolicy{MaxAttempts: 2, BaseBackoff: 200 * time.Microsecond}
		// Pass-through while the scope stays in strict mode.
		cfg.Breaker = &eventspace.BreakerPolicy{
			RoundDeadline:  2 * time.Millisecond,
			TripAfter:      2,
			ReopenBase:     4 * time.Millisecond,
			ReopenMax:      40 * time.Millisecond,
			StalenessBound: 100 * time.Millisecond,
		}
		lb, err := sys.AttachLoadBalance(tree, eventspace.SingleScope, cfg)
		if err != nil {
			return err
		}
		work := func(iterations int) error {
			_, err := sys.RunWorkload(eventspace.Workload{
				Trees: []*eventspace.Tree{tree}, Iterations: iterations, Compute: 200 * time.Microsecond,
			})
			return err
		}
		waitCoverage := func(what string, want func(eventspace.Coverage) bool) error {
			for i := 0; i < 4000; i++ {
				if want(lb.Coverage()) {
					return nil
				}
				eventspace.SleepOutside(time.Millisecond)
			}
			return fmt.Errorf("%s: coverage never settled: %+v", what, lb.Coverage())
		}
		complete := func(c eventspace.Coverage) bool { return c.Complete() }
		report := func(phase string) {
			cov := lb.Coverage()
			fmt.Printf("%s: coverage %d/%d missing %v\n", phase, cov.Reporting, cov.Expected, cov.Missing)
		}

		// A healthy run: the monitor observes every host.
		if err := work(600); err != nil {
			return err
		}
		if err := waitCoverage("healthy", complete); err != nil {
			return err
		}
		report("healthy")

		// Crashing a gateway orphans its cluster behind a dead uplink. The
		// repair manager re-parents the orphaned hosts under the surviving
		// gateway; gateways carry no application traffic, so the compute
		// tree is untouched and keeps being observed.
		mgr, err := sys.AttachReconfig(lb, eventspace.ReconfigPolicy{})
		if err != nil {
			return err
		}
		net := sys.Testbed().Net
		net.InjectFaults(eventspace.FaultPlan{Events: []eventspace.FaultEvent{
			{Kind: eventspace.FaultCrash, Host: sys.Testbed().Clusters[1].Gateway().Name()},
		}})
		if err := waitCoverage("gateway repair", func(c eventspace.Coverage) bool {
			return c.Complete() && len(mgr.Plans()) > 0
		}); err != nil {
			return err
		}
		report("gateway repaired")
		before := lb.RoundsObserved()
		if err := work(200); err != nil {
			return err
		}
		for i := 0; i < 4000 && lb.RoundsObserved() == before; i++ {
			eventspace.SleepOutside(time.Millisecond)
		}
		fmt.Printf("rounds observed through the repaired tree: %t\n", lb.RoundsObserved() > before)

		// A straggler, not a crash: the iron cluster's node host, where its
		// wrappers and trace buffers live, serves 100x slower.
		// Bounded-staleness cuts it off at the breaker deadline and coasts
		// on its last data; summary-only also skips the weighted-tree fold
		// and only counts the gathered batches.
		node := sys.Testbed().Clusters[1].Hosts()[0].Name()
		net.InjectFaults(eventspace.FaultPlan{Seed: 7, Events: []eventspace.FaultEvent{
			{Kind: eventspace.FaultSlow, Host: node, Factor: 100},
		}})
		lb.SetScopeMode(eventspace.ModeBounded)
		if err := work(150); err != nil {
			return err
		}
		if err := waitCoverage("straggler", func(c eventspace.Coverage) bool {
			for _, h := range append(append([]string{}, c.Stale...), c.Skipped...) {
				if h == node {
					return true
				}
			}
			return false
		}); err != nil {
			return err
		}
		fmt.Printf("bounded-staleness: straggler %s stale or skipped\n", node)
		lb.SetScopeMode(eventspace.ModeSummary)
		if err := work(100); err != nil {
			return err
		}
		for i := 0; i < 4000 && lb.SummarizedBatches() == 0; i++ {
			eventspace.SleepOutside(time.Millisecond)
		}
		fmt.Printf("summary-only: batches folded to counters: %t\n", lb.SummarizedBatches() > 0)
		net.ClearFaults()
		lb.SetScopeMode(eventspace.ModeStrict)

		// The same host crashes: pulls keep succeeding on partial data and
		// coverage names the gap. Its application connections have no
		// redial layer, so no workload runs after this.
		inj := net.InjectFaults(eventspace.FaultPlan{Seed: 42, Events: []eventspace.FaultEvent{
			{Kind: eventspace.FaultCrash, Host: node},
		}})
		if err := waitCoverage("crash", func(c eventspace.Coverage) bool { return !c.Complete() }); err != nil {
			return err
		}
		report("host crashed")
		net.ClearFaults()
		net.InjectFaults(eventspace.FaultPlan{Events: []eventspace.FaultEvent{
			{Kind: eventspace.FaultRestart, Host: node},
		}})
		if err := waitCoverage("restart", complete); err != nil {
			return err
		}
		report("host restarted")
		for _, rec := range inj.Log() {
			fmt.Printf("fault log: %s %s\n", rec.Kind, rec.Target)
		}
		net.ClearFaults()
		return nil
	})
	if err != nil {
		fmt.Println(err)
	}
	// Output:
	// healthy: coverage 2/2 missing []
	// gateway repaired: coverage 2/2 missing []
	// rounds observed through the repaired tree: true
	// bounded-staleness: straggler iron-0 stale or skipped
	// summary-only: batches folded to counters: true
	// host crashed: coverage 1/2 missing [iron-0]
	// host restarted: coverage 2/2 missing []
	// fault log: crash iron-0
}

// Front-end recovery: a load-balance monitor and a checkpointed recorder
// watch gsum until the front end is lost at a quiesce point. Recover
// rebuilds the lost state from the archive, through its newest
// checkpoint, and starts a replacement monitor and a recorder that
// continues into a fresh directory; the replacement then counts the
// second phase on top of the first. The archive needs a directory, the
// one thing this program takes from the operating system.
func Example_recover() {
	dir, err := os.MkdirTemp("", "eventspace-recover")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer os.RemoveAll(dir)
	const rounds = 40
	err = eventspace.RunVirtual(func() error {
		sys, err := eventspace.New(eventspace.SingleTin(8), eventspace.CoschedAfterUnblock)
		if err != nil {
			return err
		}
		defer sys.Close()
		tree, err := sys.BuildTree(eventspace.TreeSpec{
			Name: "gsum", Fanout: 8, ThreadsPerHost: 1, Instrument: true, TraceBufCap: 1024,
		})
		if err != nil {
			return err
		}
		cfg := eventspace.DefaultMonitorConfig()
		cfg.PullInterval = 200 * time.Microsecond
		lb, err := sys.AttachLoadBalance(tree, eventspace.SingleScope, cfg)
		if err != nil {
			return err
		}
		rec, err := sys.AttachArchiveCheckpointed(tree, 200*time.Microsecond,
			eventspace.ArchiveOptions{Dir: dir + "/before"}, eventspace.CheckpointConfig{EveryTuples: 128})
		if err != nil {
			return err
		}
		work := func() error {
			_, err := sys.RunWorkload(eventspace.Workload{Trees: []*eventspace.Tree{tree}, Iterations: rounds})
			return err
		}
		// observed waits until a monitor has counted want rounds.
		observed := func(m interface{ RoundsObserved() uint64 }, want uint64) bool {
			for i := 0; i < 5000 && m.RoundsObserved() < want; i++ {
				eventspace.SleepOutside(100 * time.Microsecond)
			}
			return m.RoundsObserved() == want
		}
		if err := work(); err != nil {
			return err
		}
		if !observed(lb, rounds) {
			return fmt.Errorf("phase 1: monitor counted %d rounds", lb.RoundsObserved())
		}

		// The front end is lost here: the recorder seals its archive and
		// the monitor's in-memory state is gone.
		rec.Stop()
		lb.Stop()
		p, err := sys.Recover(dir+"/before", eventspace.PipelineSpec{
			Tree: tree, LoadBalance: &cfg, Sealed: rec.Err() == nil,
			Archive: &eventspace.ArchiveOptions{Dir: dir + "/after"}, Pull: 200 * time.Microsecond,
		})
		if err != nil {
			return err
		}
		fmt.Printf("rounds recovered: %d\n", p.State.RoundsRecovered)
		fmt.Printf("recovered through a checkpoint: %t\n", p.State.Checkpointed)
		if err := work(); err != nil {
			return err
		}
		fmt.Printf("replacement saw every round of both phases: %t\n", observed(p.LoadBalance, 2*rounds))
		return nil
	})
	if err != nil {
		fmt.Println(err)
	}
	// Output:
	// rounds recovered: 40
	// recovered through a checkpoint: true
	// replacement saw every round of both phases: true
}
