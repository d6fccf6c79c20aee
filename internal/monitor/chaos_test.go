package monitor

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"eventspace/internal/cluster"
	"eventspace/internal/escope"
	"eventspace/internal/hrtime"
	"eventspace/internal/pastset"
	"eventspace/internal/paths"
	"eventspace/internal/vclock"
	"eventspace/internal/vnet"
)

// The end-to-end chaos scenario: an allreduce application on the tin
// cluster keeps making progress while the iron cluster — which carries
// monitoring heartbeat sources — is crashed, partitioned, healed, and
// restarted by a scheduled fault plan. The monitoring scope degrades to
// partial coverage instead of failing, reports the gap, and recovers
// (delivering the data buffered during the outage) once the cluster
// heals.
func TestChaosMonitoringSurvivesCrashPartitionHeal(t *testing.T) {
	virtual(t)
	tb, err := cluster.NewTestbed(cluster.LANMulti(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	iron := tb.Clusters[1]

	// The application tree spans only the tin cluster: the faults target
	// iron, so the collective never loses a contributor.
	appTB := &cluster.Testbed{Net: tb.Net, Clusters: tb.Clusters[:1], FrontEnd: tb.FrontEnd}
	tree, err := cluster.BuildTree(appTB, cluster.TreeSpec{
		Name: "T", Fanout: 8, ThreadsPerHost: 1, Instrument: true, TraceBufCap: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()

	// The load-balance monitor watches the application; its scope also
	// lives entirely on tin, so it must stay live throughout.
	cfg := DefaultConfig()
	cfg.AnalysisCostPerTuple = 0
	cfg.LoadBalanceCostPerTuple = 0
	cfg.PullInterval = 5 * time.Millisecond
	cfg.Health = &escope.HealthPolicy{DeadAfter: 2, ProbeBase: time.Millisecond, ProbeMax: 4 * time.Millisecond}
	cfg.Retry = &paths.RetryPolicy{MaxAttempts: 2, BaseBackoff: 100 * time.Microsecond}
	lb, err := NewLoadBalance(tb, tree, SingleScope, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()
	defer lb.Stop()

	// Heartbeat sources on the iron hosts: each writes a rising sequence
	// number while its host is up. Records are host index + u16 seq.
	ironHosts := iron.Hosts()
	elems := make([]*pastset.Element, len(ironHosts))
	srcs := make([]escope.Source, len(ironHosts))
	for i, h := range ironHosts {
		if elems[i], err = pastset.NewElementFixed("hb", 4096, 3); err != nil {
			t.Fatal(err)
		}
		srcs[i] = escope.Source{Host: h, Elem: elems[i], RecSize: 3}
	}
	hb, err := escope.Build(tb.Net, escope.Spec{
		Name:     "hb",
		FrontEnd: tb.FrontEnd,
		Sources:  srcs,
		Health:   &escope.HealthPolicy{DeadAfter: 2, ProbeBase: time.Millisecond, ProbeMax: 4 * time.Millisecond},
		Retry:    &paths.RetryPolicy{MaxAttempts: 2, BaseBackoff: 100 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()

	var seenMu sync.Mutex
	maxSeen := make(map[int]uint16)
	puller := hb.StartPuller(time.Millisecond, func(rep paths.Reply) error {
		seenMu.Lock()
		defer seenMu.Unlock()
		for i := 0; i+3 <= len(rep.Data); i += 3 {
			host := int(rep.Data[i])
			seq := binary.LittleEndian.Uint16(rep.Data[i+1 : i+3])
			if seq > maxSeen[host] {
				maxSeen[host] = seq
			}
		}
		return nil
	})
	defer puller.Stop()
	seen := func(host int) uint16 {
		seenMu.Lock()
		defer seenMu.Unlock()
		return maxSeen[host]
	}

	stopWriters := make(chan struct{})
	var writers sync.WaitGroup
	for i, h := range ironHosts {
		writers.Add(1)
		e := elems[i]
		vclock.Go(func() {
			defer writers.Done()
			for seq := uint16(1); ; seq++ {
				select {
				case <-stopWriters:
					return
				default:
				}
				// A crashed host's processes stop; a partitioned host
				// keeps producing into its local buffer.
				if !tb.Net.HostDown(h) {
					rec := []byte{byte(i), 0, 0}
					binary.LittleEndian.PutUint16(rec[1:], seq)
					e.WriteCopy(rec)
				}
				hrtime.Sleep(100 * time.Microsecond)
			}
		})
	}
	defer func() { close(stopWriters); writers.Wait() }()

	// Wait for full healthy coverage before injecting anything.
	waitFor(t, 10*time.Second, func() bool {
		return hb.Coverage().Complete() && seen(0) > 0 && seen(1) > 0
	}, "heartbeats never established full coverage")

	// The fault plan, in model time: crash iron-0, partition the whole
	// iron cluster, then heal and restart.
	tb.Net.InjectFaults(vnet.FaultPlan{
		Seed: 1,
		Events: []vnet.FaultEvent{
			{At: 50 * time.Millisecond, Kind: vnet.FaultCrash, Host: ironHosts[0].Name()},
			{At: 80 * time.Millisecond, Kind: vnet.FaultPartition, Cluster: iron.Name()},
			{At: 2 * time.Second, Kind: vnet.FaultHeal, Cluster: iron.Name()},
			{At: 2200 * time.Millisecond, Kind: vnet.FaultRestart, Host: ironHosts[0].Name()},
		},
	})
	defer tb.Net.ClearFaults()

	// The application runs right through the fault window. Its driver
	// waits for the threads on a plain WaitGroup, so it is not a model
	// goroutine; runApp starts the threads as model goroutines.
	appDone := make(chan struct{})
	go func() {
		defer close(appDone)
		runApp(t, tree, 200, -1, 0)
	}()

	// Coverage dips: with iron partitioned, every iron host goes missing.
	waitFor(t, 10*time.Second, func() bool {
		return len(hb.Coverage().Missing) == len(ironHosts)
	}, "coverage never dipped under crash+partition")
	preHeal := seen(1)

	// Coverage recovers after heal+restart, and the sequence written by
	// the partitioned (but alive) iron-1 during the outage is delivered:
	// the source cursor persisted, so the gap closes.
	waitFor(t, 30*time.Second, func() bool {
		return hb.Coverage().Complete() && seen(1) > preHeal && seen(0) > 0
	}, "monitoring coverage never recovered after heal+restart")

	<-appDone // app finished all rounds without error (runApp asserts)

	// The tin-side monitor never lost coverage and observed the app.
	if cov := lb.Coverage(); !cov.Complete() {
		t.Fatalf("load-balance coverage dipped on unfaulted cluster: %+v", cov)
	}
	waitFor(t, 10*time.Second, func() bool { return lb.RoundsObserved() > 0 },
		"load-balance monitor observed no rounds")
	if puller.Pulls() == 0 {
		t.Fatal("heartbeat puller made no successful pulls")
	}
	var recoveries uint64
	for _, h := range hb.Health() {
		recoveries += h.Recoveries
	}
	if recoveries == 0 {
		t.Fatalf("no guard recovered: %+v", hb.Health())
	}
}

// A monitor whose own scope spans the faulted cluster: coverage reports
// the crashed host while the retained analysis state stays queryable,
// then recovers after restart.
func TestLoadBalanceCoverageDipsOnNodeCrash(t *testing.T) {
	virtual(t)
	tb, err := cluster.NewTestbed(cluster.LANMulti(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := cluster.BuildTree(tb, cluster.TreeSpec{
		Name: "T", Fanout: 8, ThreadsPerHost: 1, Instrument: true, TraceBufCap: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	cfg := DefaultConfig()
	cfg.AnalysisCostPerTuple = 0
	cfg.LoadBalanceCostPerTuple = 0
	cfg.PullInterval = 2 * time.Millisecond
	cfg.Health = &escope.HealthPolicy{DeadAfter: 2, ProbeBase: time.Millisecond, ProbeMax: 4 * time.Millisecond}
	cfg.Retry = &paths.RetryPolicy{MaxAttempts: 2, BaseBackoff: 100 * time.Microsecond}
	lb, err := NewLoadBalance(tb, tree, SingleScope, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()
	defer lb.Stop()

	// Run the application to completion first; the crash then only
	// affects monitoring pulls, not the collective.
	runApp(t, tree, 40, -1, 0)
	waitFor(t, 10*time.Second, func() bool { return lb.RoundsObserved() > 0 },
		"no rounds observed before the fault")
	if cov := lb.Coverage(); !cov.Complete() {
		t.Fatalf("pre-fault coverage incomplete: %+v", cov)
	}

	victim := tb.Clusters[1].Hosts()[0]
	tb.Net.InjectFaults(vnet.FaultPlan{
		Events: []vnet.FaultEvent{{Kind: vnet.FaultCrash, Host: victim.Name()}},
	})
	defer tb.Net.ClearFaults()
	waitFor(t, 10*time.Second, func() bool {
		cov := lb.Coverage()
		for _, m := range cov.Missing {
			if m == victim.Name() {
				return true
			}
		}
		return false
	}, "crashed host never reported missing")
	// The retained analysis state is still queryable on partial coverage.
	if lb.Weighted() == nil || lb.RoundsObserved() == 0 {
		t.Fatal("analysis state lost under partial coverage")
	}

	tb.Net.ClearFaults()
	tb.Net.InjectFaults(vnet.FaultPlan{
		Events: []vnet.FaultEvent{{Kind: vnet.FaultRestart, Host: victim.Name()}},
	})
	waitFor(t, 30*time.Second, func() bool { return lb.Coverage().Complete() },
		"coverage never recovered after restart")
}
