package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"eventspace/internal/analysis"
	"eventspace/internal/archive"
	"eventspace/internal/checkpoint"
	"eventspace/internal/cluster"
	"eventspace/internal/cosched"
	"eventspace/internal/hrtime"
	"eventspace/internal/monitor"
	"eventspace/internal/vclock"
	"eventspace/internal/vnet"
)

func newSystem(t *testing.T, strategy cosched.Strategy) *System {
	t.Helper()
	s, err := New(cluster.SingleTin(4), strategy)
	if err != nil {
		t.Fatal(err)
	}
	// Close inside the virtual section too (Close is idempotent); the
	// cleanup is only a backstop for failing tests.
	t.Cleanup(s.Close)
	return s
}

func instrumented(t *testing.T, s *System, name string) *cluster.Tree {
	t.Helper()
	tree, err := s.BuildTree(cluster.TreeSpec{
		Name: name, Fanout: 8, ThreadsPerHost: 1, Instrument: true, TraceBufCap: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestNewValidatesTestbed(t *testing.T) {
	if _, err := New(cluster.TestbedSpec{}, cosched.None); err == nil {
		t.Fatal("empty testbed accepted")
	}
}

func TestBuildTreeAndLookup(t *testing.T) {
	err := RunVirtual(func() error {
		s := newSystem(t, cosched.None)
		tree := instrumented(t, s, "T")
		if s.trees["T"] != tree {
			t.Fatal("tree not registered by name")
		}
		if _, err := s.BuildTree(cluster.TreeSpec{Name: "T"}); err == nil {
			t.Fatal("duplicate tree accepted")
		}
		if s.Testbed() == nil || s.Cosched() == nil {
			t.Fatal("accessors nil")
		}
		s.Close()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWorkloadGsum(t *testing.T) {
	err := RunVirtual(func() error {
		s := newSystem(t, cosched.None)
		t1 := instrumented(t, s, "T1")
		t2 := instrumented(t, s, "T2")
		d, err := s.RunWorkload(Workload{Trees: []*cluster.Tree{t1, t2}, Iterations: 20})
		if err != nil {
			t.Fatal(err)
		}
		if d <= 0 {
			t.Fatalf("duration = %v", d)
		}
		// The threads alternate: each tree completed half the iterations.
		if t1.Nodes[0].AR.Rounds() != 10 || t2.Nodes[0].AR.Rounds() != 10 {
			t.Fatalf("rounds = %d/%d", t1.Nodes[0].AR.Rounds(), t2.Nodes[0].AR.Rounds())
		}
		// Compute-gsum rotates over the trees the same way.
		if _, err := s.RunWorkload(Workload{Trees: []*cluster.Tree{t1, t2}, Iterations: 6, Compute: 100 * time.Microsecond}); err != nil {
			t.Fatal(err)
		}
		if t1.Nodes[0].AR.Rounds() != 13 || t2.Nodes[0].AR.Rounds() != 13 {
			t.Fatalf("after compute-gsum: rounds = %d/%d", t1.Nodes[0].AR.Rounds(), t2.Nodes[0].AR.Rounds())
		}
		s.Close()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWorkloadComputeGsum(t *testing.T) {
	err := RunVirtual(func() error {
		s := newSystem(t, cosched.None)
		tree := instrumented(t, s, "T")
		base, err := s.RunWorkload(Workload{Trees: []*cluster.Tree{tree}, Iterations: 20})
		if err != nil {
			t.Fatal(err)
		}
		perOp := base / 20
		d, err := s.RunWorkload(Workload{Trees: []*cluster.Tree{tree}, Iterations: 20, Compute: perOp})
		if err != nil {
			t.Fatal(err)
		}
		if d <= base {
			t.Fatalf("compute-gsum %v not slower than gsum %v", d, base)
		}
		s.Close()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunWorkloadSurfacesCollectiveError crashes one compute host in the
// middle of a run: its thread's allreduce fails, the survivors — who would
// otherwise wait for its contribution forever — are released, and
// RunWorkload reports the error instead of a duration.
func TestRunWorkloadSurfacesCollectiveError(t *testing.T) {
	err := RunVirtual(func() error {
		s := newSystem(t, cosched.None)
		tree := instrumented(t, s, "T")
		victim := s.Testbed().Clusters[0].Hosts()[2]
		d, err := s.RunWorkload(Workload{
			Trees: []*cluster.Tree{tree}, Iterations: 200,
			// The plan goes in from inside the model, once thread 0 has
			// completed 20 rounds: a plan installed by the driver could
			// fire before the threads are even spawned.
			Delay: func(thread, iteration int) time.Duration {
				if thread == 0 && iteration == 20 {
					s.Testbed().Net.InjectFaults(vnet.FaultPlan{Events: []vnet.FaultEvent{
						{Kind: vnet.FaultCrash, Host: victim.Name()},
					}})
				}
				return 0
			},
		})
		if !errors.Is(err, vnet.ErrConnClosed) && !errors.Is(err, vnet.ErrHostDown) {
			t.Errorf("RunWorkload = %v, %v; want the crashed host's connection error", d, err)
		}
		if d != 0 {
			t.Errorf("failed run reported a duration: %v", d)
		}
		if rounds := tree.Nodes[0].AR.Rounds(); rounds < 20 || rounds >= 200 {
			t.Errorf("crash was not mid-run: %d rounds completed", rounds)
		}
		s.Close()
		if err := vclock.Quiesce(5 * time.Second); err != nil {
			t.Errorf("threads outlived the failed run: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWorkloadValidation(t *testing.T) {
	err := RunVirtual(func() error {
		s := newSystem(t, cosched.None)
		if _, err := s.RunWorkload(Workload{}); err == nil {
			t.Fatal("no trees accepted")
		}
		tree := instrumented(t, s, "T")
		if _, err := s.RunWorkload(Workload{Trees: []*cluster.Tree{tree}}); err == nil {
			t.Fatal("0 iterations accepted")
		}
		s.Close()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAttachLoadBalanceFindsStraggler(t *testing.T) {
	err := RunVirtual(func() error {
		s := newSystem(t, cosched.None)
		tree := instrumented(t, s, "T")
		cfg := monitor.DefaultConfig()
		cfg.PullInterval = 300 * time.Microsecond
		cfg.AnalysisInterval = 300 * time.Microsecond
		lb, err := s.AttachLoadBalance(tree, monitor.Distributed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		const rounds = 60
		_, err = s.RunWorkload(Workload{
			Trees:      []*cluster.Tree{tree},
			Iterations: rounds,
			Delay: func(thread, iter int) time.Duration {
				if thread == 0 {
					return 2 * time.Millisecond // tin-0's thread lags
				}
				return 0
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Drain: give the monitor a little model time.
		s.RunWorkload(Workload{Trees: []*cluster.Tree{tree}, Iterations: 5, Delay: func(th, it int) time.Duration {
			if th == 0 {
				return 2 * time.Millisecond
			}
			return 0
		}})
		root := tree.Nodes[0]
		counts := lb.Weighted().Counts(root.Name)
		if counts[0] < rounds/2 {
			t.Fatalf("straggler not identified: %v", counts)
		}
		s.Close()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAttachStatsmGathersStats(t *testing.T) {
	err := RunVirtual(func() error {
		s := newSystem(t, cosched.AfterUnblock)
		tree := instrumented(t, s, "T")
		cfg := monitor.DefaultConfig()
		cfg.PullInterval = 300 * time.Microsecond
		sm, err := s.AttachStatsm(tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunWorkload(Workload{Trees: []*cluster.Tree{tree}, Iterations: 80}); err != nil {
			t.Fatal(err)
		}
		if sm.RoundsAnalyzed() == 0 {
			t.Fatal("no rounds analyzed")
		}
		rootID := tree.Nodes[0].CollectiveEC.ID()
		if _, ok := sm.Tree().Get(rootID, analysis.KindTotal); !ok {
			t.Fatal("no total-latency record at the front-end")
		}
		s.Close()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStoppingOneMonitorLeavesOthersRunning: a monitor's Stop ends its
// own analysis threads only. The coscheduling controllers belong to the
// System, so a statsm attached before the stop and a distributed
// load-balance monitor attached after it both keep analysing.
func TestStoppingOneMonitorLeavesOthersRunning(t *testing.T) {
	for _, strategy := range []cosched.Strategy{cosched.None, cosched.AfterUnblock} {
		t.Run(strategy.String(), func(t *testing.T) {
			err := RunVirtual(func() error {
				s := newSystem(t, strategy)
				tree := instrumented(t, s, "T")
				cfg := monitor.DefaultConfig()
				cfg.PullInterval = 300 * time.Microsecond
				sm, err := s.AttachStatsm(tree, cfg)
				if err != nil {
					t.Fatal(err)
				}
				first, err := s.AttachLoadBalance(tree, monitor.Distributed, cfg)
				if err != nil {
					t.Fatal(err)
				}
				first.Stop()
				lb, err := s.AttachLoadBalance(tree, monitor.Distributed, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.RunWorkload(Workload{Trees: []*cluster.Tree{tree}, Iterations: 60}); err != nil {
					t.Fatal(err)
				}
				for i := 0; lb.RoundsObserved() == 0 && i < 200; i++ {
					hrtime.SleepOutside(100 * time.Microsecond)
				}
				if sm.RoundsAnalyzed() == 0 {
					t.Error("statsm analysed no rounds after another monitor stopped")
				}
				if lb.RoundsObserved() == 0 {
					t.Error("load balance attached after another monitor stopped observed no rounds")
				}
				s.Close()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCloseIsIdempotentAndFinal(t *testing.T) {
	err := RunVirtual(func() error {
		s, err := New(cluster.SingleTin(2), cosched.None)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := s.BuildTree(cluster.TreeSpec{Name: "T", ThreadsPerHost: 1, Instrument: true, TraceBufCap: 8})
		if err != nil {
			t.Fatal(err)
		}
		cfg := monitor.DefaultConfig()
		cfg.PullInterval = 300 * time.Microsecond
		if _, err := s.AttachLoadBalance(tree, monitor.SingleScope, cfg); err != nil {
			t.Fatal(err)
		}
		s.Close()
		s.Close()
		if _, err := s.BuildTree(cluster.TreeSpec{Name: "U"}); err == nil {
			t.Fatal("BuildTree after Close accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunVirtualPropagatesError(t *testing.T) {
	sentinel := RunVirtual(func() error { return errSentinel })
	if sentinel != errSentinel {
		t.Fatalf("got %v", sentinel)
	}
}

var errSentinel = errString("boom")

type errString string

func (e errString) Error() string { return string(e) }

// TestArchiveStopDrainsRegistered locks in the archive final-drain
// deadlock fix at runtime (internal/lint's goroleak guards it
// statically by flagging any plain go statement in core and archive):
// ArchiveRecorder.Stop's final drain performs modelled network work, so
// it must run as a registered model goroutine. Run unregistered, its
// modelled sleeps would panic with vclock.ErrUnregistered. The test drives a workload, stops the
// recorder inside the virtual section, and requires every model
// goroutine to unwind — then checks the drain actually archived.
func TestArchiveStopDrainsRegistered(t *testing.T) {
	dir := t.TempDir()
	err := RunVirtual(func() error {
		s := newSystem(t, cosched.None)
		tree := instrumented(t, s, "T")
		rec, err := s.AttachArchiveCheckpointed(tree, time.Millisecond, archive.Options{Dir: dir}, checkpoint.Config{})
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
		s.Close()
		if err := vclock.Quiesce(5 * time.Second); err != nil {
			t.Fatalf("model goroutines leaked past Stop+Close: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := archive.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Tuples() == 0 {
		t.Fatal("final drain archived nothing")
	}
}

// TestRunVirtualReportsStall: a model deadlocked on itself — two
// goroutines each waiting on the other's queue — makes RunVirtual return
// the clock's stall report, naming both, instead of hanging or
// returning fn's nil.
func TestRunVirtualReportsStall(t *testing.T) {
	start := time.Now()
	var qa, qb *vclock.Queue[int]
	err := RunVirtual(func() error {
		qa, qb = vclock.NewQueue[int](), vclock.NewQueue[int]()
		vclock.Go(func() {
			if _, ok := qa.Pop(); ok {
				_ = qb.Push(1)
			}
		})
		vclock.Go(func() {
			if _, ok := qb.Pop(); ok {
				_ = qa.Push(1)
			}
		})
		return nil
	})
	qa.Close() // release both, now as plain goroutines
	qb.Close()
	var s *vclock.Stall
	if !errors.As(err, &s) {
		t.Fatalf("RunVirtual = %v, want a *vclock.Stall", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("the stall took %v to report", waited)
	}
	if len(s.Goroutines) != 2 {
		t.Fatalf("report names %d goroutines, want 2:\n%v", len(s.Goroutines), err)
	}
	for _, g := range s.Goroutines {
		if g.State != "parked in Queue.Pop" || !strings.Contains(g.Site, "TestRunVirtualReportsStall") {
			t.Errorf("reported %q spawned at %q", g.State, g.Site)
		}
	}
}
