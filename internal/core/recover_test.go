package core

import (
	"bytes"
	"os"
	"testing"
	"time"

	"eventspace/internal/archive"
	"eventspace/internal/checkpoint"
	"eventspace/internal/cluster"
	"eventspace/internal/cosched"
	"eventspace/internal/metrics"
	"eventspace/internal/monitor"
	"eventspace/internal/reconfig"
	"eventspace/internal/vclock"
	"eventspace/internal/viz"
)

// TestRecoverUndoesPartialStart: a Recover whose last step fails — a
// recorder with no directory — stops the monitors it had already
// started, so the same call with a directory then succeeds on the same
// System, and nothing outlives the System's Close. A bad alert
// statement fails before anything is rebuilt.
func TestRecoverUndoesPartialStart(t *testing.T) {
	sealed, resumed := t.TempDir(), t.TempDir()
	err := RunVirtual(func() error {
		s := newSystem(t, cosched.None)
		reg := metrics.New()
		s.UseMetrics(reg)
		tree := instrumented(t, s, "T")
		rec, err := s.AttachArchiveCheckpointed(tree, time.Millisecond, archive.Options{Dir: sealed}, checkpoint.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunWorkload(Workload{Trees: []*cluster.Tree{tree}, Iterations: 8}); err != nil {
			t.Fatal(err)
		}
		rec.Stop()
		if err := rec.Err(); err != nil {
			t.Fatal(err)
		}
		cfg := monitor.DefaultConfig()
		cfg.PullInterval = 300 * time.Microsecond
		spec := PipelineSpec{
			Tree: tree, LoadBalance: &cfg, Statsm: &cfg,
			Archive: &archive.Options{}, Pull: time.Millisecond, Sealed: true,
		}

		bad := spec
		bad.Alerts = []string{"alert when count() >"}
		if _, err := s.Recover(sealed, bad); err == nil {
			t.Fatal("bad alert statement accepted")
		}
		if ops := reg.Snapshot().ByKind(metrics.KindReconfig); len(ops) != 0 {
			t.Fatalf("front end rebuilt before the alert statements parsed: %+v", ops)
		}
		if _, err := s.Recover(sealed, spec); err == nil {
			t.Fatal("recorder without a directory accepted")
		}
		spec.Archive = &archive.Options{Dir: resumed}
		p, err := s.Recover(sealed, spec)
		if err != nil {
			t.Fatalf("retry after a failed start: %v", err)
		}
		if p.LoadBalance == nil || p.Statsm == nil || p.Recorder == nil || p.State.RoundsRecovered == 0 {
			t.Fatalf("retry started %+v", p)
		}
		s.Close()
		if err := vclock.Quiesce(5 * time.Second); err != nil {
			t.Fatalf("goroutines outlived Close: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecoverStatsmKeepsAnalysing: the statsm Recover starts analyses
// the workload that follows the recovery. Stopping the lost front end's
// statsm must not close the System's coscheduling controllers, or the
// recovered monitor's tree stays frozen at the replayed seed.
func TestRecoverStatsmKeepsAnalysing(t *testing.T) {
	sealed := t.TempDir()
	err := RunVirtual(func() error {
		s := newSystem(t, cosched.AfterUnblock)
		tree := instrumented(t, s, "T")
		cfg := monitor.DefaultConfig()
		cfg.PullInterval = 300 * time.Microsecond
		old, err := s.AttachStatsm(tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := s.AttachArchiveCheckpointed(tree, time.Millisecond, archive.Options{Dir: sealed}, checkpoint.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunWorkload(Workload{Trees: []*cluster.Tree{tree}, Iterations: 30}); err != nil {
			t.Fatal(err)
		}
		old.Stop()
		rec.Stop()
		if err := rec.Err(); err != nil {
			t.Fatal(err)
		}
		if old.RoundsAnalyzed() == 0 {
			t.Fatal("the lost statsm analysed nothing")
		}
		p, err := s.Recover(sealed, PipelineSpec{Tree: tree, Statsm: &cfg, Sealed: true})
		if err != nil {
			t.Fatal(err)
		}
		before := p.Statsm.RoundsAnalyzed()
		if _, err := s.RunWorkload(Workload{Trees: []*cluster.Tree{tree}, Iterations: 30}); err != nil {
			t.Fatal(err)
		}
		if after := p.Statsm.RoundsAnalyzed(); after <= before {
			t.Fatalf("recovered statsm analysed %d rounds before the second phase and %d after", before, after)
		}
		s.Close()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecoveredRecorderCheckpoints: the recorder Recover starts
// checkpoints like the first one, so a second loss of the front end
// recovers from the resumed directory's own chain — and that recovery
// equals a full replay of the same directory with the chain stripped.
func TestRecoveredRecorderCheckpoints(t *testing.T) {
	sealed, resumed := t.TempDir(), t.TempDir()
	err := RunVirtual(func() error {
		s := newSystem(t, cosched.None)
		tree := instrumented(t, s, "T")
		rec, err := s.AttachArchiveCheckpointed(tree, time.Millisecond, archive.Options{Dir: sealed}, checkpoint.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunWorkload(Workload{Trees: []*cluster.Tree{tree}, Iterations: 8}); err != nil {
			t.Fatal(err)
		}
		rec.Stop()
		if err := rec.Err(); err != nil {
			t.Fatal(err)
		}
		p, err := s.Recover(sealed, PipelineSpec{
			Tree: tree, Archive: &archive.Options{Dir: resumed}, Pull: time.Millisecond, Sealed: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunWorkload(Workload{Trees: []*cluster.Tree{tree}, Iterations: 40}); err != nil {
			t.Fatal(err)
		}
		p.Recorder.Stop()
		if err := p.Recorder.Err(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	fast, err := reconfig.RecoverFrontEnd(resumed, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !fast.Checkpointed || fast.ChainEntries < 1 {
		t.Fatalf("resumed recorder left no usable chain: checkpointed=%v chain=%d", fast.Checkpointed, fast.ChainEntries)
	}
	entries, err := checkpoint.List(resumed)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := os.Remove(e.Path); err != nil {
			t.Fatal(err)
		}
	}
	full, err := reconfig.RecoverFrontEnd(resumed, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.Checkpointed {
		t.Fatal("recovery took a checkpoint from a stripped chain")
	}
	if fast.RoundsRecovered != full.RoundsRecovered || full.RoundsRecovered == 0 {
		t.Fatalf("checkpointed recovery rebuilt %d rounds, full replay %d", fast.RoundsRecovered, full.RoundsRecovered)
	}
	var got, want bytes.Buffer
	if err := viz.WeightedTree(&got, fast.Resume.Weighted); err != nil {
		t.Fatal(err)
	}
	if err := viz.WeightedTree(&want, full.Resume.Weighted); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("checkpointed recovery diverged from full replay\n--- checkpointed ---\n%s--- full ---\n%s", got.String(), want.String())
	}
}
