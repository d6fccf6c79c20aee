package eventspace

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"eventspace/internal/archive"
	"eventspace/internal/viz"
)

// chaosTopology builds the crash-matrix system: an instrumented tree
// with a live load-balance monitor and a checkpointed archive recorder
// whose writer (and checkpointer) is armed with the given crash plan.
// Trace buffers are sized to retain the whole run, so a recovered
// front end can close its gather gap by re-reading them.
const (
	chaosIt1, chaosIt2 = 40, 40
	chaosPull          = 200 * time.Microsecond
)

// chaosDelay is the workload's deterministic straggler schedule: every
// thread gets a distinct (mod 8) delay each iteration, spaced 400us
// apart. The spacing has to exceed what the deepest path adds over the
// shallowest: one modelled hop costs about 100us, so a two-hop subtree
// starting at delay d arrives within monitor-traffic noise of a one-hop
// leaf starting at d+100us, and at 100us spacing that near tie flipped
// a round's verdict in the control as often as in the recovered run.
// At 400us adjacent delays differ by more than the extra hops plus the
// contention of monitor gathers and recorder pulls, so each round's
// last-arrival verdict is fixed by the schedule alone — which is what
// lets a recovered run be compared byte-for-byte against an uncrashed
// control whose monitor traffic differed.
func chaosDelay(thread, iteration int) time.Duration {
	return time.Duration((iteration*3+thread)%8) * 400 * time.Microsecond
}

func chaosRun(t *testing.T, cps *archive.CrashPoints) (out string) {
	t.Helper()
	dir1, dir2 := t.TempDir(), t.TempDir()
	var vizOut bytes.Buffer
	err := RunVirtual(func() error {
		sys, err := New(SingleTin(8), CoschedAfterUnblock)
		if err != nil {
			return err
		}
		defer sys.Close()
		tree, err := sys.BuildTree(TreeSpec{
			Name: "T", Fanout: 4, ThreadsPerHost: 1, Instrument: true, TraceBufCap: 8192,
		})
		if err != nil {
			return err
		}
		cfg := DefaultMonitorConfig()
		cfg.PullInterval = chaosPull
		lb, err := sys.AttachLoadBalance(tree, SingleScope, cfg)
		if err != nil {
			return err
		}
		rec, err := sys.AttachArchiveCheckpointed(tree, chaosPull, ArchiveOptions{
			Dir: dir1, SegmentBytes: 4096, CrashPoints: cps,
		}, CheckpointConfig{EveryTuples: 256})
		if err != nil {
			return err
		}
		if _, err := sys.RunWorkload(Workload{Trees: []*Tree{tree}, Iterations: chaosIt1, Delay: chaosDelay}); err != nil {
			return err
		}
		want1 := uint64(chaosIt1 * len(tree.Nodes))
		for i := 0; lb.RoundsObserved() < want1; i++ {
			if i > 5000 {
				t.Errorf("phase 1 observed %d rounds, want %d", lb.RoundsObserved(), want1)
				break
			}
			SleepOutside(100 * time.Microsecond)
		}
		// The front end dies at the quiesce point: recorder (mid-crash or
		// not) and monitor state are gone. Stop errors are the crash
		// surfacing, not test failures.
		rec.Stop()
		lb.Stop()
		if cps != nil && len(cps.Fired()) == 0 {
			t.Fatalf("armed crash site never fired (plan %+v)", cps.Specs)
		}

		// Recovery: checkpoint ladder plus archive suffix, then a
		// replacement monitor that re-reads the retained windows, and a
		// resumed recorder continuing into a fresh directory.
		p, err := sys.Recover(dir1, PipelineSpec{
			Tree: tree, LoadBalance: &cfg, Sealed: rec.Err() == nil,
			Archive: &ArchiveOptions{Dir: dir2, SegmentBytes: 4096}, Pull: chaosPull,
		})
		if err != nil {
			return err
		}
		if p.State.RoundsRecovered == 0 {
			t.Error("recovery rebuilt no rounds")
		}
		lb2, rec2 := p.LoadBalance, p.Recorder
		if _, err := sys.RunWorkload(Workload{Trees: []*Tree{tree}, Iterations: chaosIt2, Delay: chaosDelay}); err != nil {
			return err
		}
		want := uint64((chaosIt1 + chaosIt2) * len(tree.Nodes))
		for i := 0; lb2.RoundsObserved() < want; i++ {
			if i > 5000 {
				t.Errorf("after recovery observed %d rounds, want %d", lb2.RoundsObserved(), want)
				break
			}
			SleepOutside(100 * time.Microsecond)
		}
		rec2.Stop()
		if err := rec2.Err(); err != nil {
			return err
		}
		if err := viz.WeightedTree(&vizOut, lb2.Weighted()); err != nil {
			return err
		}
		sys.Close()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if vizOut.Len() == 0 {
		t.Fatal("empty weighted tree rendered")
	}
	return vizOut.String()
}

// chaosControl runs the same workload uncrashed, with the same
// checkpointed recorder but no failover, and renders the live weighted
// tree — the ground truth every crash-site recovery must reproduce.
func chaosControl(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	var vizOut bytes.Buffer
	err := RunVirtual(func() error {
		sys, err := New(SingleTin(8), CoschedAfterUnblock)
		if err != nil {
			return err
		}
		defer sys.Close()
		tree, err := sys.BuildTree(TreeSpec{
			Name: "T", Fanout: 4, ThreadsPerHost: 1, Instrument: true, TraceBufCap: 8192,
		})
		if err != nil {
			return err
		}
		cfg := DefaultMonitorConfig()
		cfg.PullInterval = chaosPull
		lb, err := sys.AttachLoadBalance(tree, SingleScope, cfg)
		if err != nil {
			return err
		}
		rec, err := sys.AttachArchiveCheckpointed(tree, chaosPull, ArchiveOptions{
			Dir: dir, SegmentBytes: 4096,
		}, CheckpointConfig{EveryTuples: 256})
		if err != nil {
			return err
		}
		for _, n := range []int{chaosIt1, chaosIt2} {
			if _, err := sys.RunWorkload(Workload{Trees: []*Tree{tree}, Iterations: n, Delay: chaosDelay}); err != nil {
				return err
			}
		}
		want := uint64((chaosIt1 + chaosIt2) * len(tree.Nodes))
		for i := 0; lb.RoundsObserved() < want; i++ {
			if i > 5000 {
				t.Errorf("control observed %d rounds, want %d", lb.RoundsObserved(), want)
				break
			}
			SleepOutside(100 * time.Microsecond)
		}
		rec.Stop()
		if err := rec.Err(); err != nil {
			return err
		}
		if err := viz.WeightedTree(&vizOut, lb.Weighted()); err != nil {
			return err
		}
		sys.Close()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return vizOut.String()
}

// TestCrashMatrixRecoversByteIdentical is the chaos acceptance
// contract: for every seeded crash site — mid-block-flush, mid-seal
// before and after the block index write, mid-rotate,
// mid-checkpoint-write — and three injection seeds, a front
// end killed at a quiesce point and recovered through the checkpoint
// ladder must end the run with a weighted tree byte-identical to the
// same workload run without any crash. Damage moves recovery down the
// fallback ladder; it must never change the answer.
func TestCrashMatrixRecoversByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix is the long chaos suite")
	}
	control := chaosControl(t)
	sites := []struct {
		site  archive.CrashSite
		count int
	}{
		{archive.CrashBlockFlush, 3},
		{archive.CrashSeal, 1},
		{archive.CrashSealIndex, 1},
		{archive.CrashRotate, 1},
		{archive.CrashCheckpoint, 2},
	}
	for _, sc := range sites {
		for seed := uint64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%s/seed%d", sc.site, seed)
			sc := sc
			seed := seed
			t.Run(name, func(t *testing.T) {
				cps := &archive.CrashPoints{Seed: seed, Specs: []archive.CrashSpec{{Site: sc.site, Count: sc.count}}}
				got := chaosRun(t, cps)
				if got != control {
					t.Fatalf("recovered run diverged from uncrashed control\n--- control ---\n%s--- recovered ---\n%s",
						control, got)
				}
			})
		}
	}
}

// TestCrashMatrixUncrashedBaseline pins the harness itself: with no
// crash plan at all, the kill-at-quiesce + recover + resume path is
// also byte-identical to the straight-through control (the recovery
// machinery must be invisible when nothing is damaged).
func TestCrashMatrixUncrashedBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix is the long chaos suite")
	}
	control := chaosControl(t)
	got := chaosRun(t, nil)
	if got != control {
		t.Fatalf("uncrashed failover run diverged from control\n--- control ---\n%s--- got ---\n%s", control, got)
	}
}
