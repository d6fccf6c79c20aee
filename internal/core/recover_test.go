package core

import (
	"testing"
	"time"

	"eventspace/internal/archive"
	"eventspace/internal/cluster"
	"eventspace/internal/cosched"
	"eventspace/internal/metrics"
	"eventspace/internal/monitor"
	"eventspace/internal/vclock"
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
		rec, err := s.AttachArchive(tree, time.Millisecond, archive.Options{Dir: sealed})
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
		if !vclock.Quiesce(5 * time.Second) {
			_, running, live, timers := vclock.Stats()
			t.Fatalf("goroutines outlived Close: running=%d live=%d timers=%d", running, live, timers)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
