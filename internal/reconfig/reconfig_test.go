package reconfig_test

import (
	"fmt"
	"testing"
	"time"

	"eventspace/internal/cluster"
	"eventspace/internal/escope"
	"eventspace/internal/hrtime"
	"eventspace/internal/metrics"
	"eventspace/internal/pastset"
	"eventspace/internal/paths"
	"eventspace/internal/reconfig"
	"eventspace/internal/vclock"
	"eventspace/internal/vnet"
	"eventspace/internal/wantrace"
)

// counter reads one named counter off a registry snapshot (0 when it
// is not registered).
func counter(reg *metrics.Registry, name string) uint64 {
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// virtual runs the rest of the test on the discrete-event clock, so the
// scopes, faults and repairs run on modelled time: every delay takes its
// exact modelled value and no real time. The test goroutine is a driver:
// it pulls through pull and waits with SleepOutside.
func virtual(t *testing.T) {
	t.Helper()
	vclock.Enable(0)
	t.Cleanup(func() {
		vclock.Quiesce(10 * time.Second)
		vclock.Disable()
	})
}

// pull is s.Pull made from inside the model.
func pull(s *escope.Scope) {
	done := make(chan struct{})
	vclock.Go(func() {
		defer close(done)
		s.Pull(nil)
	})
	<-done
}

// wan4 is the acceptance topology: four Tin sub-clusters at the four
// trace sites, each behind its own gateway, under the Longcut emulator.
func wan4(seed int64, hostsPer int) cluster.TestbedSpec {
	sites := []string{wantrace.Tromso, wantrace.Trondheim, wantrace.Odense, wantrace.Aalborg}
	spec := cluster.TestbedSpec{WAN: true, WANSeed: seed}
	for i, site := range sites {
		spec.Clusters = append(spec.Clusters, cluster.ClusterSpec{
			Name: fmt.Sprintf("tin%d", i), Class: cluster.Tin, Hosts: hostsPer, Site: site,
		})
	}
	return spec
}

// testElem creates an element of 1-byte records.
func testElem(t *testing.T, name string, capacity int) *pastset.Element {
	t.Helper()
	e, err := pastset.NewElementFixed(name, capacity, 1)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// guardedScope builds a health-tracked scope with one 1-byte-record
// source per compute host of every cluster in tb.
func guardedScope(t *testing.T, tb *cluster.Testbed) (*escope.Scope, map[string]*pastset.Element) {
	t.Helper()
	elems := make(map[string]*pastset.Element)
	spec := escope.Spec{
		Name:     "mon",
		FrontEnd: tb.FrontEnd,
		Health:   &escope.HealthPolicy{DeadAfter: 2, ProbeBase: time.Millisecond, ProbeMax: 4 * time.Millisecond},
		Retry:    &paths.RetryPolicy{MaxAttempts: 2, BaseBackoff: 50 * time.Microsecond},
	}
	for _, h := range tb.Hosts() {
		e := testElem(t, "src-"+h.Name(), 64)
		if _, err := e.WriteCopy([]byte{1}); err != nil {
			t.Fatal(err)
		}
		elems[h.Name()] = e
		spec.Sources = append(spec.Sources, escope.Source{Host: h, Elem: e, RecSize: 1})
	}
	scope, err := escope.Build(tb.Net, spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(scope.Close)
	return scope, elems
}

// pullUntil pulls s every 500 µs of modelled time until cond holds or d
// of modelled time has passed.
func pullUntil(t *testing.T, s *escope.Scope, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := hrtime.Now() + int64(d)
	for hrtime.Now() < deadline {
		if cond() {
			return true
		}
		pull(s)
		hrtime.SleepOutside(500 * time.Microsecond)
	}
	return cond()
}

func clusterByName(topo []escope.ClusterTopology, name string) *escope.ClusterTopology {
	for i := range topo {
		if topo[i].Name == name {
			return &topo[i]
		}
	}
	return nil
}

// runGatewayCrash runs the acceptance scenario once and returns the
// executed repair steps: a 4-cluster WAN testbed, a monitored scope over
// every compute host, a manager attached, and one gateway crashed
// mid-run. The scope must return to full coverage within five monitored
// rounds of the repair, without a restart.
func runGatewayCrash(t *testing.T, seed int64) []reconfig.RepairStep {
	t.Helper()
	virtual(t)
	tb, err := cluster.NewTestbed(wan4(seed, 3))
	if err != nil {
		t.Fatal(err)
	}
	scope, elems := guardedScope(t, tb)
	reg := metrics.New()
	planCh := make(chan reconfig.RepairPlan, 4)
	mgr, err := reconfig.Attach(scope, reconfig.Policy{
		Metrics: reg,
		OnPlan:  func(p reconfig.RepairPlan) { planCh <- p },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()

	if !pullUntil(t, scope, 10*time.Second, func() bool { return scope.Coverage().Complete() }) {
		t.Fatalf("initial coverage never completed: %+v", scope.Coverage())
	}

	victim := tb.Clusters[0]
	orphans := victim.Hosts()
	tb.Net.InjectFaults(vnet.FaultPlan{
		CallTimeout: 500 * time.Microsecond,
		Events:      []vnet.FaultEvent{{Kind: vnet.FaultCrash, Host: victim.Gateway().Name()}},
	})
	defer tb.Net.ClearFaults()

	// Keep monitoring through the crash until the manager has repaired.
	var plan reconfig.RepairPlan
	if !pullUntil(t, scope, 20*time.Second, func() bool {
		select {
		case plan = <-planCh:
			return true
		default:
			return false
		}
	}) {
		t.Fatalf("no repair plan executed; topology %+v", scope.Topology())
	}
	if plan.Aborted || plan.Failed() {
		t.Fatalf("repair did not apply: %+v", plan)
	}
	if len(plan.Steps) != len(orphans) {
		t.Fatalf("plan has %d steps for %d orphans: %+v", len(plan.Steps), len(orphans), plan)
	}
	for _, st := range plan.Steps {
		if st.Kind != reconfig.StepReparent || st.Cluster != victim.Name() {
			t.Fatalf("unexpected step: %+v", st)
		}
	}
	if got := counter(reg, "reconfig.reparents"); got != uint64(len(orphans)) {
		t.Fatalf("reparent counter = %d, want %d", got, len(orphans))
	}

	// Fresh records on the orphaned hosts prove delivery over the new
	// paths, and coverage must heal within five monitored rounds.
	for _, h := range orphans {
		if _, err := elems[h.Name()].WriteCopy([]byte{9}); err != nil {
			t.Fatal(err)
		}
	}
	rounds := 0
	for ; rounds < 5; rounds++ {
		pull(scope)
		if cov := scope.Coverage(); cov.Reporting == cov.Expected {
			break
		}
	}
	cov := scope.Coverage()
	if cov.Reporting != cov.Expected {
		t.Fatalf("coverage not restored within 5 rounds after repair: %+v", cov)
	}
	if cov.Recovered < len(orphans) {
		t.Fatalf("recovered = %d, want >= %d (%+v)", cov.Recovered, len(orphans), cov)
	}
	// The dead cluster is dissolved; its members live under survivors.
	if clusterByName(scope.Topology(), victim.Name()) != nil {
		t.Fatalf("crashed cluster not dissolved: %+v", scope.Topology())
	}
	return plan.Steps
}

// TestGatewayCrashReparentRestoresCoverage is the acceptance scenario
// across three WAN seeds: each run must repair by re-parenting within
// five monitored rounds, and repeating a seed must produce the identical
// plan (the planner consumes only sorted snapshots and the policy). Each
// run has a virtual clock and a testbed of its own.
func TestGatewayCrashReparentRestoresCoverage(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			var runs [2][]reconfig.RepairStep
			for i := range runs {
				t.Run(fmt.Sprintf("run%d", i+1), func(t *testing.T) { runs[i] = runGatewayCrash(t, seed) })
			}
			if t.Failed() {
				return
			}
			first, second := runs[0], runs[1]
			if len(first) != len(second) {
				t.Fatalf("plans differ in length across identical runs:\n%+v\n%+v", first, second)
			}
			for i := range first {
				if first[i] != second[i] {
					t.Fatalf("plan step %d differs across identical runs:\n%+v\n%+v", i, first[i], second[i])
				}
			}
		})
	}
}

// lanRig builds a plain two-cluster LAN testbed (a: 3 hosts, b: 2).
func lanRig(t *testing.T) *cluster.Testbed {
	t.Helper()
	tb, err := cluster.NewTestbed(cluster.TestbedSpec{Clusters: []cluster.ClusterSpec{
		{Name: "a", Class: cluster.Tin, Hosts: 3, Site: wantrace.Tromso},
		{Name: "b", Class: cluster.Tin, Hosts: 2, Site: wantrace.Tromso},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// A fan-in cap that no survivor can satisfy forces the promote path: the
// cluster is rebuilt around one of its own members instead of being
// scattered.
func TestGatewayCrashPromotesUnderFanInCap(t *testing.T) {
	virtual(t)
	tb := lanRig(t)
	scope, elems := guardedScope(t, tb)
	planCh := make(chan reconfig.RepairPlan, 4)
	// No Metrics: the nil-safe counters must tolerate a nil registry.
	mgr, err := reconfig.Attach(scope, reconfig.Policy{
		MaxFanIn: 2,
		OnPlan:   func(p reconfig.RepairPlan) { planCh <- p },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()

	if !pullUntil(t, scope, 10*time.Second, func() bool { return scope.Coverage().Complete() }) {
		t.Fatalf("initial coverage never completed: %+v", scope.Coverage())
	}
	a := tb.Clusters[0]
	tb.Net.InjectFaults(vnet.FaultPlan{
		CallTimeout: 500 * time.Microsecond,
		Events:      []vnet.FaultEvent{{Kind: vnet.FaultCrash, Host: a.Gateway().Name()}},
	})
	defer tb.Net.ClearFaults()

	var plan reconfig.RepairPlan
	if !pullUntil(t, scope, 20*time.Second, func() bool {
		select {
		case plan = <-planCh:
			return true
		default:
			return false
		}
	}) {
		t.Fatalf("no repair plan executed; topology %+v", scope.Topology())
	}
	if plan.Aborted || plan.Failed() {
		t.Fatalf("repair did not apply: %+v", plan)
	}
	if len(plan.Steps) != 1 || plan.Steps[0].Kind != reconfig.StepPromote {
		t.Fatalf("expected a single promote step: %+v", plan)
	}
	promoted := plan.Steps[0].Host

	topo := scope.Topology()
	ct := clusterByName(topo, "a")
	if ct == nil || ct.Gateway != promoted {
		t.Fatalf("cluster a not rebuilt on %s: %+v", promoted, topo)
	}
	for _, h := range a.Hosts() {
		if _, err := elems[h.Name()].WriteCopy([]byte{9}); err != nil {
			t.Fatal(err)
		}
	}
	if !pullUntil(t, scope, 20*time.Second, func() bool { return scope.Coverage().Complete() }) {
		t.Fatalf("coverage never recovered after promote: %+v", scope.Coverage())
	}
	if len(mgr.Plans()) != 1 {
		t.Fatalf("plans = %+v", mgr.Plans())
	}
}

// A cluster whose members all died before its gateway leaves the planner
// nothing to work with: the plan aborts explicitly, with a reason and a
// counted abort, instead of thrashing.
func TestRepairAbortsWithoutLiveCandidates(t *testing.T) {
	virtual(t)
	tb, err := cluster.NewTestbed(cluster.TestbedSpec{Clusters: []cluster.ClusterSpec{
		{Name: "a", Class: cluster.Tin, Hosts: 2, Site: wantrace.Tromso},
	}})
	if err != nil {
		t.Fatal(err)
	}
	scope, _ := guardedScope(t, tb)
	reg := metrics.New()
	planCh := make(chan reconfig.RepairPlan, 4)
	mgr, err := reconfig.Attach(scope, reconfig.Policy{
		Metrics: reg,
		OnPlan:  func(p reconfig.RepairPlan) { planCh <- p },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()

	if !pullUntil(t, scope, 10*time.Second, func() bool { return scope.Coverage().Complete() }) {
		t.Fatalf("initial coverage never completed: %+v", scope.Coverage())
	}
	a := tb.Clusters[0]
	// Kill the members first so their leaf guards are proven dead, then
	// the gateway: the trigger fires with no live candidate anywhere.
	var events []vnet.FaultEvent
	for _, h := range a.Hosts() {
		events = append(events, vnet.FaultEvent{Kind: vnet.FaultCrash, Host: h.Name()})
	}
	tb.Net.InjectFaults(vnet.FaultPlan{CallTimeout: 500 * time.Microsecond, Events: events})
	defer tb.Net.ClearFaults()
	if !pullUntil(t, scope, 20*time.Second, func() bool {
		ct := clusterByName(scope.Topology(), "a")
		if ct == nil {
			return false
		}
		for _, m := range ct.Members {
			if m.State != escope.Dead {
				return false
			}
		}
		return true
	}) {
		t.Fatalf("members never died: %+v", scope.Topology())
	}
	// Installing a new injector forgets the old one's down state, so the
	// replacement plan re-crashes the members alongside the gateway. The
	// only prober here is this test's pull loop; waiting for all three
	// events to apply before pulling again keeps the member guards Dead
	// through the swap.
	events = append(events, vnet.FaultEvent{Kind: vnet.FaultCrash, Host: a.Gateway().Name()})
	inj := tb.Net.InjectFaults(vnet.FaultPlan{CallTimeout: 500 * time.Microsecond, Events: events})
	deadline := hrtime.Now() + int64(5*time.Second)
	for len(inj.Log()) < len(events) {
		if hrtime.Now() > deadline {
			t.Fatalf("fault events never applied: %+v", inj.Log())
		}
		hrtime.SleepOutside(200 * time.Microsecond)
	}

	var plan reconfig.RepairPlan
	if !pullUntil(t, scope, 20*time.Second, func() bool {
		select {
		case plan = <-planCh:
			return true
		default:
			return false
		}
	}) {
		t.Fatalf("no plan recorded; topology %+v", scope.Topology())
	}
	if !plan.Aborted || plan.Reason == "" {
		t.Fatalf("expected an aborted plan with a reason: %+v", plan)
	}
	if len(plan.Steps) != 0 {
		t.Fatalf("aborted plan executed steps: %+v", plan)
	}
	if got := counter(reg, "reconfig.plan-aborts"); got == 0 {
		t.Fatal("abort not counted")
	}
	// The cluster survives in the topology for a later restart to heal.
	if clusterByName(scope.Topology(), "a") == nil {
		t.Fatalf("aborted plan dissolved the cluster: %+v", scope.Topology())
	}
}

// Attach validates its inputs.
func TestAttachValidation(t *testing.T) {
	virtual(t)
	if _, err := reconfig.Attach(nil, reconfig.Policy{}); err == nil {
		t.Fatal("nil scope accepted")
	}
	tb := lanRig(t)
	e := testElem(t, "x", 8)
	plain, err := escope.Build(tb.Net, escope.Spec{
		Name: "plain", FrontEnd: tb.FrontEnd,
		Sources: []escope.Source{{Host: tb.Clusters[0].Hosts()[0], Elem: e, RecSize: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := reconfig.Attach(plain, reconfig.Policy{}); err == nil {
		t.Fatal("health-free scope accepted")
	}
}

// TestStopUnwindsRegisteredRepairGoroutine pins the manager's clock
// contract (the archive final-drain bug class; internal/lint's goroleak
// flags any plain go statement here): the repair goroutine blocks on a
// vclock.Queue, so Attach must start it via vclock.Go — under the virtual clock it
// registers immediately — and Stop must unwind it completely, leaving
// no live model goroutine to stall a later Quiesce.
func TestStopUnwindsRegisteredRepairGoroutine(t *testing.T) {
	tb := lanRig(t)
	scope, _ := guardedScope(t, tb)
	// The rig is built in real time; only the manager's lifetime runs
	// under the virtual clock.
	vclock.Enable(0)
	defer vclock.Disable()
	mgr, err := reconfig.Attach(scope, reconfig.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, live, _ := vclock.Stats(); live != 1 {
		t.Fatalf("repair goroutine not registered with the clock: live = %d, want 1", live)
	}
	mgr.Stop()
	mgr.Stop() // idempotent: the second call must not hang or panic
	if !vclock.Quiesce(5 * time.Second) {
		_, running, live, timers := vclock.Stats()
		t.Fatalf("repair goroutine still registered after Stop: running=%d live=%d timers=%d",
			running, live, timers)
	}
}
