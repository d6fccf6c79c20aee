package eventspace

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"eventspace/internal/archive"
	"eventspace/internal/collect"
	"eventspace/internal/monitor"
	"eventspace/internal/paths"
	"eventspace/internal/query"
	"eventspace/internal/viz"
	"eventspace/internal/vnet"
)

// replayArchive replays a recorded archive through the load-balance
// join and statsm's wrapper statistics, as esquery replay does.
func replayArchive(t *testing.T, dir string) *monitor.Replay {
	t.Helper()
	r, err := archive.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	infos, err := archive.ReadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := archive.ReplayStats(r, infos, archive.Query{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestArchiveReplayMatchesLiveLoadBalance is the determinism contract of
// the trace archive: recording a run and replaying the archive through
// the load-balance join offline must reproduce the live monitor's
// per-round last-arrival verdicts exactly — same weighted tree, byte for
// byte in the viz rendering — whether the live monitor joins at the
// front end (single-scope) or on the compute hosts (distributed). The
// run is sized so neither side loses tuples (large trace buffers,
// continuous pulls, no retention), which the test asserts before
// comparing.
func TestArchiveReplayMatchesLiveLoadBalance(t *testing.T) {
	for _, mode := range []monitor.LoadBalanceMode{SingleScope, Distributed} {
		t.Run(mode.String(), func(t *testing.T) { testArchiveReplayMatchesLiveLoadBalance(t, mode) })
	}
}

func testArchiveReplayMatchesLiveLoadBalance(t *testing.T, mode monitor.LoadBalanceMode) {
	dir := t.TempDir()
	var liveOut bytes.Buffer
	const iters = 60
	err := RunVirtual(func() error {
		sys, err := New(SingleTin(8), CoschedAfterUnblock)
		if err != nil {
			return err
		}
		defer sys.Close()
		tree, err := sys.BuildTree(TreeSpec{
			Name: "T", Fanout: 4, ThreadsPerHost: 1, Instrument: true, TraceBufCap: 4096,
		})
		if err != nil {
			return err
		}
		// A coscheduled distributed analysis thread runs only in a
		// collective's window, and the last round's trace tuples can land
		// just after the last window opens. Collectives on this
		// uninstrumented tree over the same hosts open more windows
		// without writing a tuple.
		flush, err := sys.BuildTree(TreeSpec{Name: "F", Fanout: 4, ThreadsPerHost: 1})
		if err != nil {
			return err
		}
		cfg := DefaultMonitorConfig()
		cfg.PullInterval = 200 * time.Microsecond
		lb, err := sys.AttachLoadBalance(tree, mode, cfg)
		if err != nil {
			return err
		}
		// Small segments force several rotations mid-run; no retention
		// cap, so nothing recorded is deleted.
		rec, err := sys.AttachArchiveCheckpointed(tree, 200*time.Microsecond, ArchiveOptions{
			Dir: dir, SegmentBytes: 4096,
		}, CheckpointConfig{})
		if err != nil {
			return err
		}
		if _, err := sys.RunWorkload(Workload{Trees: []*Tree{tree}, Iterations: iters}); err != nil {
			return err
		}
		// Every node joins every iteration: wait for the live monitor to
		// observe all rounds so the comparison is loss-free on its side.
		want := uint64(iters * len(tree.Nodes))
		for i := 0; lb.RoundsObserved() < want; i++ {
			if i > 5000 {
				t.Errorf("live monitor observed %d rounds, want %d", lb.RoundsObserved(), want)
				break
			}
			if i%100 == 99 {
				if _, err := sys.RunWorkload(Workload{Trees: []*Tree{flush}, Iterations: 1}); err != nil {
					return err
				}
			}
			SleepOutside(100 * time.Microsecond)
		}
		rec.Stop()
		if err := rec.Err(); err != nil {
			return err
		}
		if rate := min(lb.GatherRate(), lb.TraceReadRate()); rate < 1 {
			t.Errorf("live monitor lost tuples (gather or trace read rate %v); comparison not meaningful", rate)
		}
		if err := viz.WeightedTree(&liveOut, lb.Weighted()); err != nil {
			return err
		}
		sys.Close()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	rep := replayArchive(t, dir)
	if lost := rep.Lost(); lost != 0 {
		t.Fatalf("replay evicted %d incomplete rounds", lost)
	}
	var replayOut bytes.Buffer
	if err := viz.WeightedTree(&replayOut, rep.Weighted()); err != nil {
		t.Fatal(err)
	}
	if liveOut.String() != replayOut.String() {
		t.Fatalf("replay diverged from live monitor\n--- live ---\n%s--- replay ---\n%s",
			liveOut.String(), replayOut.String())
	}
	if replayOut.Len() == 0 {
		t.Fatal("empty weighted trees compared")
	}
}

// TestFrontEndFailoverResumesByteIdentical is the failover acceptance
// contract: a run whose front-end monitor dies at a quiesce point and is
// replaced by one rebuilt from the sealed archive must, at the end, have
// a weighted tree byte-identical to an offline replay of the run's
// complete archive (the sealed pre-failover directory plus the resumed
// one, fed in sequence) — no round lost to the handoff, none counted
// twice.
func TestFrontEndFailoverResumesByteIdentical(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	var liveOut bytes.Buffer
	const it1, it2 = 40, 40
	err := RunVirtual(func() error {
		sys, err := New(SingleTin(8), CoschedAfterUnblock)
		if err != nil {
			return err
		}
		defer sys.Close()
		tree, err := sys.BuildTree(TreeSpec{
			Name: "T", Fanout: 4, ThreadsPerHost: 1, Instrument: true, TraceBufCap: 4096,
		})
		if err != nil {
			return err
		}
		cfg := DefaultMonitorConfig()
		cfg.PullInterval = 200 * time.Microsecond
		lb, err := sys.AttachLoadBalance(tree, SingleScope, cfg)
		if err != nil {
			return err
		}
		rec, err := sys.AttachArchiveCheckpointed(tree, 200*time.Microsecond, ArchiveOptions{
			Dir: dir1, SegmentBytes: 4096,
		}, CheckpointConfig{})
		if err != nil {
			return err
		}
		if _, err := sys.RunWorkload(Workload{Trees: []*Tree{tree}, Iterations: it1}); err != nil {
			return err
		}
		// Quiesce: the live monitor observes every phase-1 round, then the
		// archive is sealed with its final drain.
		want1 := uint64(it1 * len(tree.Nodes))
		for i := 0; lb.RoundsObserved() < want1; i++ {
			if i > 5000 {
				t.Errorf("phase 1 observed %d rounds, want %d", lb.RoundsObserved(), want1)
				break
			}
			SleepOutside(100 * time.Microsecond)
		}
		rec.Stop()
		if err := rec.Err(); err != nil {
			return err
		}
		// The front-end "dies": its monitor and in-memory state are gone.
		lb.Stop()

		// Recovery from the sealed archive: a replacement monitor and a
		// replacement statsm seeded from it, plus a recorder continuing
		// into a fresh directory.
		p, err := sys.Recover(dir1, PipelineSpec{
			Tree: tree, LoadBalance: &cfg, Statsm: &cfg, Sealed: true,
			Archive: &ArchiveOptions{Dir: dir2, SegmentBytes: 4096}, Pull: 200 * time.Microsecond,
		})
		if err != nil {
			return err
		}
		st, lb2, rec2 := p.State, p.LoadBalance, p.Recorder
		if st.RoundsRecovered != want1 {
			t.Errorf("failover recovered %d rounds, want %d", st.RoundsRecovered, want1)
		}
		if st.TuplesMatched == 0 {
			t.Error("failover replay matched no tuples")
		}
		if lb2.RoundsObserved() != want1 {
			t.Errorf("replacement starts at %d rounds, want %d", lb2.RoundsObserved(), want1)
		}
		// The statistics side of the handoff: the replacement statsm starts
		// from the archive-replayed analysis tree, not from zero.
		if len(p.Statsm.Tree().IDs()) == 0 {
			t.Error("failover statsm seeded with an empty analysis tree")
		}
		if _, err := sys.RunWorkload(Workload{Trees: []*Tree{tree}, Iterations: it2}); err != nil {
			return err
		}
		want := uint64((it1 + it2) * len(tree.Nodes))
		for i := 0; lb2.RoundsObserved() < want; i++ {
			if i > 5000 {
				t.Errorf("after failover observed %d rounds, want %d", lb2.RoundsObserved(), want)
				break
			}
			SleepOutside(100 * time.Microsecond)
		}
		rec2.Stop()
		if err := rec2.Err(); err != nil {
			return err
		}
		if err := viz.WeightedTree(&liveOut, lb2.Weighted()); err != nil {
			return err
		}
		sys.Close()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Offline: the sealed and resumed archives, fed in sequence into one
	// replay, must reproduce the failover run's live weighted tree.
	rep := replayArchive(t, dir1)
	r2, err := archive.OpenReader(dir2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Scan(archive.Query{}, func(tu collect.TraceTuple) bool {
		rep.Feed(tu)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if lost := rep.Lost(); lost != 0 {
		t.Fatalf("combined replay evicted %d rounds", lost)
	}
	var replayOut bytes.Buffer
	if err := viz.WeightedTree(&replayOut, rep.Weighted()); err != nil {
		t.Fatal(err)
	}
	if liveOut.String() != replayOut.String() {
		t.Fatalf("failover run diverged from its own archive\n--- live ---\n%s--- replay ---\n%s",
			liveOut.String(), replayOut.String())
	}
	if replayOut.Len() == 0 {
		t.Fatal("empty weighted trees compared")
	}
}

// TestDegradedRunReplaysByteIdentical is the degradation-ladder
// acceptance contract: a run that walks the ladder (strict ->
// bounded-staleness mid-traffic, then summary-only at quiesce) while a
// checkpointing recorder interleaves checkpoint marks with the data
// loses no tuple and sheds nothing, and its archive replays to the live
// weighted tree byte for byte.
func TestDegradedRunReplaysByteIdentical(t *testing.T) {
	dir := t.TempDir()
	var liveTree bytes.Buffer
	const it1, it2 = 30, 30
	err := RunVirtual(func() error {
		sys, err := New(SingleTin(8), CoschedAfterUnblock)
		if err != nil {
			return err
		}
		defer sys.Close()
		tree, err := sys.BuildTree(TreeSpec{
			Name: "T", Fanout: 4, ThreadsPerHost: 1, Instrument: true, TraceBufCap: 4096,
		})
		if err != nil {
			return err
		}
		cfg := DefaultMonitorConfig()
		cfg.PullInterval = 200 * time.Microsecond
		cfg.Health = &HealthPolicy{}
		// A breaker with a generous deadline: the ladder engages but no
		// child is slow enough to trip, so no round loses data.
		cfg.Breaker = &BreakerPolicy{RoundDeadline: 50 * time.Millisecond}
		lb, err := sys.AttachLoadBalance(tree, SingleScope, cfg)
		if err != nil {
			return err
		}
		if lb.ScopeMode() != ModeStrict {
			t.Errorf("initial mode %v, want strict", lb.ScopeMode())
		}
		rec, err := sys.AttachArchiveCheckpointed(tree, 200*time.Microsecond, ArchiveOptions{
			Dir: dir, SegmentBytes: 4096,
		}, CheckpointConfig{EveryTuples: 256})
		if err != nil {
			return err
		}
		if _, err := sys.RunWorkload(Workload{Trees: []*Tree{tree}, Iterations: it1}); err != nil {
			return err
		}
		// Walk the ladder mid-traffic: strict -> bounded-staleness.
		lb.SetScopeMode(ModeBounded)
		if _, err := sys.RunWorkload(Workload{Trees: []*Tree{tree}, Iterations: it2}); err != nil {
			return err
		}
		want := uint64((it1 + it2) * len(tree.Nodes))
		for i := 0; lb.RoundsObserved() < want; i++ {
			if i > 5000 {
				t.Errorf("observed %d rounds, want %d", lb.RoundsObserved(), want)
				break
			}
			SleepOutside(100 * time.Microsecond)
		}
		// Final rung at quiesce, so the weighted trees stay comparable.
		lb.SetScopeMode(ModeSummary)
		if lb.ScopeMode() != ModeSummary {
			t.Errorf("mode %v after final rung, want summary-only", lb.ScopeMode())
		}
		rec.Stop()
		if err := rec.Err(); err != nil {
			return err
		}
		if rate := lb.GatherRate(); rate < 1 {
			t.Errorf("degraded run lost tuples (gather rate %v) despite idle breaker", rate)
		}
		if err := viz.WeightedTree(&liveTree, lb.Weighted()); err != nil {
			return err
		}
		sys.Close()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	r, err := archive.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	marks := 0
	if _, err := r.Scan(archive.Query{
		ECIDs: []uint32{collect.ControlECID}, Ops: []paths.OpKind{paths.OpCheckpoint},
	}, func(collect.TraceTuple) bool {
		marks++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if marks == 0 {
		t.Fatal("the recorder interleaved no checkpoint marks")
	}
	// The interleaved control tuples must not perturb the data replay.
	larep := replayArchive(t, dir)
	if lost := larep.Lost(); lost != 0 {
		t.Fatalf("data replay evicted %d rounds", lost)
	}
	var repTree bytes.Buffer
	if err := viz.WeightedTree(&repTree, larep.Weighted()); err != nil {
		t.Fatal(err)
	}
	if liveTree.String() != repTree.String() {
		t.Fatalf("degraded run's data diverged from its archive\n--- live ---\n%s--- replay ---\n%s",
			liveTree.String(), repTree.String())
	}
	if repTree.Len() == 0 {
		t.Fatal("empty renderings compared")
	}
}

func TestFacadeTopologies(t *testing.T) {
	for _, spec := range []TestbedSpec{
		SingleTin(4), LANMulti(3, 3), WANMulti(2, 2, 1, 0),
	} {
		if len(spec.Clusters) == 0 {
			t.Fatal("empty topology")
		}
	}
}

func TestFacadeConstants(t *testing.T) {
	if SingleScope == Distributed {
		t.Fatal("modes collide")
	}
	if CoschedNone == CoschedAfterSend || CoschedAfterSend == CoschedAfterUnblock {
		t.Fatal("strategies collide")
	}
	cfg := DefaultMonitorConfig()
	if cfg.Strategy != CoschedAfterUnblock {
		t.Fatal("default strategy diverges from the paper")
	}
}

// TestContinuousQueryAlertFiresAndReplays is the alert-replay contract
// of the continuous-query engine, end to end through the façade: a
// chaos run with injected latency spikes fires standing esql alerts,
// the alerts are archived as OpAlert control tuples next to the data
// tuples, and two independent offline paths — decoding the archived
// alert tuples, and re-running the same statements over the archived
// data — reproduce the live alert stream exactly.
func TestContinuousQueryAlertFiresAndReplays(t *testing.T) {
	t.Run("columnar", testContinuousQueryAlertFiresAndReplays)
}

func testContinuousQueryAlertFiresAndReplays(t *testing.T) {
	dir := t.TempDir()
	// Two standing queries: a latency-spike detector the injected chaos
	// should trip, and an activity alert guaranteed to fire once two
	// consecutive windows hold data.
	sources := []string{
		"alert when p99(latency) > 1ms by ecid window 1ms",
		"alert when count() > 0 window 1ms for 2 rounds",
	}
	var live []collect.AlertTuple
	err := RunVirtual(func() error {
		sys, err := New(SingleTin(8), CoschedAfterUnblock)
		if err != nil {
			return err
		}
		defer sys.Close()
		tree, err := sys.BuildTree(TreeSpec{
			Name: "T", Fanout: 4, ThreadsPerHost: 1, Instrument: true, TraceBufCap: 4096,
		})
		if err != nil {
			return err
		}
		// Latency chaos: a third of all message legs take an extra 2ms.
		sys.Testbed().Net.InjectFaults(FaultPlan{
			Seed:  11,
			Rules: []vnet.FaultRule{{SpikeProb: 0.3, SpikeDelay: 2 * time.Millisecond}},
		})
		rec, err := sys.AttachArchiveCheckpointed(tree, 200*time.Microsecond, ArchiveOptions{
			Dir: dir, SegmentBytes: 4096,
		}, CheckpointConfig{}, sources...)
		if err != nil {
			return err
		}
		if _, err := sys.RunWorkload(Workload{Trees: []*Tree{tree}, Iterations: 60}); err != nil {
			return err
		}
		rec.Stop()
		if err := rec.Err(); err != nil {
			return err
		}
		live = rec.Alerts()
		sys.Close()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(live) == 0 {
		t.Fatal("no alerts fired during the chaos run")
	}

	r, err := archive.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	archived, _, err := archive.ReplayAlerts(r, archive.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(archived, live) {
		t.Fatalf("archived alert tuples differ from live:\narchived %v\nlive     %v", archived, live)
	}
	stmts := make([]*query.Stmt, len(sources))
	for i, src := range sources {
		if stmts[i], err = query.Parse(src); err != nil {
			t.Fatal(err)
		}
	}
	regen, err := query.Replay(r, stmts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(regen, live) {
		t.Fatalf("regenerated alerts differ from live:\nregen %v\nlive  %v", regen, live)
	}
}
