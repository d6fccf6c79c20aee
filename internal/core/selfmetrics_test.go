package core

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"eventspace/internal/archive"
	"eventspace/internal/checkpoint"
	"eventspace/internal/cluster"
	"eventspace/internal/cosched"
	"eventspace/internal/escope"
	"eventspace/internal/hrtime"
	"eventspace/internal/metrics"
	"eventspace/internal/monitor"
	"eventspace/internal/paths"
	"eventspace/internal/reconfig"
	"eventspace/internal/vnet"
)

// TestSystemCountersReadOwners is the system half of "one count, two
// views" (the scope half is escope's TestScopeCountersReadOwners, which
// reads the counts no package exports): Example_chaos's rig on one
// registry — a load-balance monitor with Health, Retry and Breaker, a
// statistics monitor with Retry, a repair manager, and a checkpointed
// recorder whose archive rotates — through a straggler storm and a
// gateway crash the manager repairs by re-parenting, then a Recover.
// With everything stopped, each of the 23 counters is registered, and
// each whose owner shows its count equals it; the guard totals keep the
// links the repair tore down, so they cover the guards still listed.
// No total taken before the repair exceeds the one after it.
func TestSystemCountersReadOwners(t *testing.T) {
	dir, resumed := t.TempDir(), t.TempDir()
	err := RunVirtual(func() error {
		s, err := New(cluster.LANMulti(4, 3), cosched.AfterUnblock)
		if err != nil {
			return err
		}
		defer s.Close()
		reg := metrics.New()
		s.UseMetrics(reg)
		tree, err := s.BuildTree(cluster.TreeSpec{
			Name: "cg", Fanout: 8, ThreadsPerHost: 1, Instrument: true, TraceBufCap: 400,
		})
		if err != nil {
			return err
		}
		const pull = 400 * time.Microsecond
		cfg := monitor.DefaultConfig()
		cfg.PullInterval = pull
		cfg.Health = &escope.HealthPolicy{DeadAfter: 2, ProbeBase: 2 * time.Millisecond, ProbeMax: 20 * time.Millisecond}
		cfg.Retry = &paths.RetryPolicy{MaxAttempts: 2, BaseBackoff: 200 * time.Microsecond}
		cfg.Breaker = &escope.BreakerPolicy{
			RoundDeadline: 2 * time.Millisecond, TripAfter: 2,
			ReopenBase: 4 * time.Millisecond, ReopenMax: 40 * time.Millisecond,
			StalenessBound: 100 * time.Millisecond,
		}
		lb, err := s.AttachLoadBalance(tree, monitor.SingleScope, cfg)
		if err != nil {
			return err
		}
		mgr, err := s.AttachReconfig(lb, reconfig.Policy{})
		if err != nil {
			return err
		}
		work := func(iterations int) error {
			_, err := s.RunWorkload(Workload{Trees: []*cluster.Tree{tree}, Iterations: iterations, Compute: 200 * time.Microsecond})
			return err
		}
		waitFor := func(what string, cond func() bool) error {
			for i := 0; i < 4000; i++ {
				if cond() {
					return nil
				}
				hrtime.SleepOutside(time.Millisecond)
			}
			return fmt.Errorf("%s never happened: coverage %+v, breakers %+v", what, lb.Coverage(), lb.Scope().Breakers())
		}
		if err := work(300); err != nil {
			return err
		}
		if err := waitFor("full coverage", func() bool { return lb.Coverage().Complete() }); err != nil {
			return err
		}

		// A straggler storm on the iron cluster's node host, gathered in
		// bounded-staleness mode until its breaker trips, then left to
		// settle until no breaker has a call in flight.
		net := s.Testbed().Net
		node := s.Testbed().Clusters[1].Hosts()[0].Name()
		net.InjectFaults(vnet.FaultPlan{Seed: 7, Events: []vnet.FaultEvent{
			{Kind: vnet.FaultSlow, Host: node, Factor: 100},
		}})
		lb.SetScopeMode(escope.ModeBounded)
		if err := work(150); err != nil {
			return err
		}
		if err := waitFor("a breaker trip", func() bool {
			for _, b := range lb.Scope().Breakers() {
				if b.Trips > 0 {
					return true
				}
			}
			return false
		}); err != nil {
			return err
		}
		net.ClearFaults()
		if err := waitFor("settled breakers", func() bool {
			for _, b := range lb.Scope().Breakers() {
				if b.Pending {
					return false
				}
			}
			return true
		}); err != nil {
			return err
		}
		lb.SetScopeMode(escope.ModeStrict)

		// The recorder and the statistics monitor join once the storm is
		// over, so they do not pile onto the straggler.
		rec, err := s.AttachArchiveCheckpointed(tree, pull,
			archive.Options{Dir: dir, SegmentBytes: 16 << 10, BlockTuples: 64},
			checkpoint.Config{EveryTuples: 256})
		if err != nil {
			return err
		}
		smCfg := monitor.DefaultConfig()
		smCfg.Retry = cfg.Retry
		sm, err := s.AttachStatsm(tree, smCfg)
		if err != nil {
			return err
		}
		if err := work(400); err != nil {
			return err
		}
		before := counterValues(reg)

		// The tin cluster's gateway crashes; the manager re-parents its
		// hosts, tearing down the dead uplink and their old links.
		gw := s.Testbed().Clusters[0].Gateway().Name()
		net.InjectFaults(vnet.FaultPlan{Events: []vnet.FaultEvent{{Kind: vnet.FaultCrash, Host: gw}}})
		if err := waitFor("the repair", func() bool { return lb.Coverage().Complete() && len(mgr.Plans()) > 0 }); err != nil {
			return err
		}
		if err := work(200); err != nil {
			return err
		}
		mgr.Stop()
		lb.Stop()
		sm.Stop()
		rec.Stop()
		if err := rec.Err(); err != nil {
			return err
		}
		net.ClearFaults()
		net.InjectFaults(vnet.FaultPlan{Events: []vnet.FaultEvent{{Kind: vnet.FaultRestart, Host: gw}}})
		p, err := s.Recover(dir, PipelineSpec{Tree: tree, Archive: &archive.Options{Dir: resumed}, Pull: pull, Sealed: true})
		if err != nil {
			return err
		}
		if err := work(100); err != nil {
			return err
		}
		p.Recorder.Stop()
		if err := p.Recorder.Err(); err != nil {
			return err
		}
		net.ClearFaults()

		// Everything is stopped: the registry and the owners are read at
		// one instant.
		got := counterValues(reg)
		lbs := lb.Scope().Name() + "/"
		arch := "archive(" + filepath.Base(dir) + ")/"
		archResumed := "archive(" + filepath.Base(resumed) + ")/"
		names := []string{
			lbs + "health.faults", lbs + "health.deaths", lbs + "health.recoveries",
			lbs + "stub.retries", lbs + "stub.redials",
			"statsm/stub.retries", "statsm/stub.redials",
			lbs + "breaker.trips", lbs + "breaker.overruns", lbs + "breaker.skips", lbs + "breaker.stale",
			lbs + "puller.pulls", lbs + "puller.errors", lbs + "puller.backoffs",
			"checkpoint.writes",
			arch + "rotations", arch + "retention.deletes", arch + "truncations",
			"reconfig.reparents", "reconfig.promotes", "reconfig.plan-aborts",
			"reconfig.recoveries", "reconfig.recoveries.checkpointed",
		}
		for _, name := range names {
			if _, ok := got[name]; !ok {
				t.Errorf("counter %s not registered", name)
			}
		}
		for name, b := range before {
			if got[name] < b {
				t.Errorf("%s went back from %d to %d across the repair", name, b, got[name])
			}
		}
		for _, name := range []string{lbs + "health.faults", lbs + "health.deaths", lbs + "breaker.trips",
			"reconfig.reparents", arch + "rotations", "checkpoint.writes", "reconfig.recoveries"} {
			if got[name] == 0 {
				t.Errorf("the rig never moved %s", name)
			}
		}

		want := map[string]uint64{}
		for _, b := range lb.Scope().Breakers() {
			want[lbs+"breaker.trips"] += b.Trips
			want[lbs+"breaker.overruns"] += b.TotalOverruns
			want[lbs+"breaker.skips"] += b.Skips
			want[lbs+"breaker.stale"] += b.Stale
		}
		want["checkpoint.writes"] = rec.ckpt.Stats().Written + p.Recorder.ckpt.Stats().Written
		for prefix, w := range map[string]*archive.Writer{arch: rec.writer, archResumed: p.Recorder.writer} {
			ws := w.Stats()
			want[prefix+"rotations"] = ws.Rotations
			want[prefix+"retention.deletes"] = ws.RetentionDeletes
			want[prefix+"truncations"] = ws.TornTruncations
		}
		want["archive/cg/puller.pulls"] = rec.puller.Pulls() + p.Recorder.puller.Pulls()
		want["reconfig.reparents"], want["reconfig.promotes"], want["reconfig.plan-aborts"] = 0, 0, 0
		for _, plan := range mgr.Plans() {
			if plan.Aborted {
				want["reconfig.plan-aborts"]++
			}
			for _, st := range plan.Steps {
				switch {
				case st.Err != "":
				case st.Kind == reconfig.StepReparent:
					want["reconfig.reparents"]++
				case st.Kind == reconfig.StepPromote:
					want["reconfig.promotes"]++
				}
			}
		}
		want["reconfig.recoveries"] = 1
		want["reconfig.recoveries.checkpointed"] = 0
		if p.State.Checkpointed {
			want["reconfig.recoveries.checkpointed"] = 1
		}
		for name, w := range want {
			if got[name] != w {
				t.Errorf("%s = %d, its owners count %d", name, got[name], w)
			}
		}

		var faults, recoveries uint64
		for _, h := range lb.Scope().Health() {
			faults += h.Faults
			recoveries += h.Recoveries
		}
		if got[lbs+"health.faults"] < faults || got[lbs+"health.recoveries"] < recoveries {
			t.Errorf("health totals %d faults, %d recoveries below the listed guards' %d, %d",
				got[lbs+"health.faults"], got[lbs+"health.recoveries"], faults, recoveries)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// counterValues is the registry's counters by name.
func counterValues(reg *metrics.Registry) map[string]uint64 {
	out := map[string]uint64{}
	for _, c := range reg.Snapshot().Counters {
		out[c.Name] = c.Value
	}
	return out
}
