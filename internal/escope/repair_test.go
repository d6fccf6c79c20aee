package escope

import (
	"testing"
	"time"

	"eventspace/internal/pastset"
	"eventspace/internal/paths"
	"eventspace/internal/vnet"
)

// repairRig builds a guarded two-cluster scope with one source per
// compute host and returns it with the per-host elements.
func repairRig(t *testing.T) (*rig, *Scope, map[string]*pastset.Element) {
	t.Helper()
	r := newRig(t)
	elems := make(map[string]*pastset.Element)
	spec := Spec{
		Name:     "repair",
		FrontEnd: r.fe,
		Health:   &HealthPolicy{DeadAfter: 2, ProbeBase: time.Millisecond, ProbeMax: 4 * time.Millisecond},
		Retry:    &paths.RetryPolicy{MaxAttempts: 2, BaseBackoff: 50 * time.Microsecond},
	}
	for _, h := range append(append([]*vnet.Host(nil), r.c1.Hosts()...), r.c2.Hosts()...) {
		e := testElem(t, "src-"+h.Name(), 64, 1)
		fill(t, e, []byte{1})
		elems[h.Name()] = e
		spec.Sources = append(spec.Sources, Source{Host: h, Elem: e, RecSize: 1})
	}
	scope, err := Build(r.net, spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(scope.Close)
	return r, scope, elems
}

func clusterByName(topo []ClusterTopology, name string) *ClusterTopology {
	for i := range topo {
		if topo[i].Name == name {
			return &topo[i]
		}
	}
	return nil
}

func TestTopologySnapshotsClusters(t *testing.T) {
	r, scope, _ := repairRig(t)
	topo := scope.Topology()
	if len(topo) != 2 {
		t.Fatalf("clusters = %d, want 2", len(topo))
	}
	a, b := clusterByName(topo, "a"), clusterByName(topo, "b")
	if a == nil || b == nil {
		t.Fatalf("topology = %+v", topo)
	}
	if a.Gateway != r.c1.Gateway().Name() || len(a.Members) != len(r.c1.Hosts()) {
		t.Fatalf("cluster a = %+v", a)
	}
	if len(b.Members) != len(r.c2.Hosts()) {
		t.Fatalf("cluster b = %+v", b)
	}
	// Scopes without health tracking are not repairable.
	e := testElem(t, "nh", 8, 1)
	plain, err := Build(r.net, Spec{Name: "plain", FrontEnd: r.fe,
		Sources: []Source{{Host: r.c1.Hosts()[0], Elem: e, RecSize: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if plain.Topology() != nil {
		t.Fatal("health-free scope reported a repairable topology")
	}
	if err := plain.ReparentHost(r.c1.Hosts()[0].Name(), "b"); err == nil {
		t.Fatal("health-free reparent accepted")
	}
}

func TestReparentHostRestoresCoverage(t *testing.T) {
	r, scope, elems := repairRig(t)
	if _, err := pull(scope, nil); err != nil {
		t.Fatal(err)
	}

	// Kill cluster a's gateway: the uplink guard dies, every host in a is
	// cut off, but the hosts themselves are alive.
	gw := r.c1.Gateway()
	r.net.InjectFaults(vnet.FaultPlan{
		CallTimeout: 200 * time.Microsecond,
		Events:      []vnet.FaultEvent{{Kind: vnet.FaultCrash, Host: gw.Name()}},
	})
	defer r.net.ClearFaults()
	if !pullUntil(t, scope, 5*time.Second, func() bool {
		a := clusterByName(scope.Topology(), "a")
		return a != nil && a.UplinkState == Dead
	}) {
		t.Fatalf("uplink never died: %+v", scope.Health())
	}
	if cov := scope.Coverage(); cov.Reporting != len(r.c2.Hosts()) {
		t.Fatalf("degraded coverage: %+v", cov)
	}

	// Re-parent every host of a onto b's gateway; write fresh records so
	// delivery over the new path is observable.
	for _, h := range r.c1.Hosts() {
		if err := scope.ReparentHost(h.Name(), "b"); err != nil {
			t.Fatalf("reparent %s: %v", h.Name(), err)
		}
		fill(t, elems[h.Name()], []byte{7})
	}

	// Cluster a dissolved; b holds everyone.
	topo := scope.Topology()
	if clusterByName(topo, "a") != nil {
		t.Fatalf("cluster a not dissolved: %+v", topo)
	}
	b := clusterByName(topo, "b")
	if b == nil || len(b.Members) != len(r.c1.Hosts())+len(r.c2.Hosts()) {
		t.Fatalf("cluster b after reparent: %+v", b)
	}

	// Coverage heals and the re-parented hosts' data flows again —
	// including the record written while they were orphaned (their
	// cursors live on the hosts and survived the re-parent).
	seven := 0
	if !pullUntil(t, scope, 5*time.Second, func() bool {
		rep, err := pull(scope, nil)
		if err == nil {
			for _, by := range rep.Data {
				if by == 7 {
					seven++
				}
			}
		}
		return seven >= len(r.c1.Hosts()) && scope.Coverage().Complete()
	}) {
		t.Fatalf("no recovery after reparent: coverage %+v, seven=%d", scope.Coverage(), seven)
	}
	cov := scope.Coverage()
	if cov.Recovered < len(r.c1.Hosts()) {
		t.Fatalf("recovered = %d, want >= %d (%+v)", cov.Recovered, len(r.c1.Hosts()), cov)
	}
	if len(cov.LastHeard) == 0 {
		t.Fatalf("no last-heard stamps: %+v", cov)
	}

	// Reparent validation.
	if err := scope.ReparentHost(r.c2.Hosts()[0].Name(), "b"); err == nil {
		t.Fatal("same-cluster reparent accepted")
	}
	if err := scope.ReparentHost("nope", "b"); err == nil {
		t.Fatal("unknown host accepted")
	}
	if err := scope.ReparentHost(r.c2.Hosts()[0].Name(), "zzz"); err == nil {
		t.Fatal("unknown target cluster accepted")
	}
}

func TestPromoteGatewayRebuildsCluster(t *testing.T) {
	r, scope, elems := repairRig(t)
	if _, err := pull(scope, nil); err != nil {
		t.Fatal(err)
	}
	gw := r.c1.Gateway()
	r.net.InjectFaults(vnet.FaultPlan{
		CallTimeout: 200 * time.Microsecond,
		Events:      []vnet.FaultEvent{{Kind: vnet.FaultCrash, Host: gw.Name()}},
	})
	defer r.net.ClearFaults()
	if !pullUntil(t, scope, 5*time.Second, func() bool {
		a := clusterByName(scope.Topology(), "a")
		return a != nil && a.UplinkState == Dead
	}) {
		t.Fatalf("uplink never died: %+v", scope.Health())
	}

	promoted := r.c1.Hosts()[0].Name()
	if err := scope.PromoteGateway("a", promoted); err != nil {
		t.Fatal(err)
	}
	topo := scope.Topology()
	a := clusterByName(topo, "a")
	if a == nil || a.Gateway != promoted {
		t.Fatalf("after promote: %+v", a)
	}
	var localSeen bool
	for _, m := range a.Members {
		if m.Local {
			if m.Host != promoted {
				t.Fatalf("local member = %s, want %s", m.Host, promoted)
			}
			localSeen = true
		}
	}
	if !localSeen {
		t.Fatalf("promoted member not local: %+v", a.Members)
	}

	for _, h := range r.c1.Hosts() {
		fill(t, elems[h.Name()], []byte{8})
	}
	eight := 0
	if !pullUntil(t, scope, 5*time.Second, func() bool {
		rep, err := pull(scope, nil)
		if err == nil {
			for _, by := range rep.Data {
				if by == 8 {
					eight++
				}
			}
		}
		return eight >= len(r.c1.Hosts()) && scope.Coverage().Complete()
	}) {
		t.Fatalf("no recovery after promote: coverage %+v, eight=%d", scope.Coverage(), eight)
	}

	// Promote validation.
	if err := scope.PromoteGateway("a", promoted); err == nil {
		t.Fatal("double promote accepted")
	}
	if err := scope.PromoteGateway("zzz", promoted); err == nil {
		t.Fatal("unknown cluster accepted")
	}
	if err := scope.PromoteGateway("a", "nope"); err == nil {
		t.Fatal("unknown member accepted")
	}
}

// TestProbeJitterDecorrelatesGuards is the regression test for the
// deterministic probe jitter: eight guards sharing one policy must not
// share a probe schedule (a cluster dying at once must not produce a
// synchronized probe storm), yet each guard's schedule must be exactly
// reproducible across runs.
func TestProbeJitterDecorrelatesGuards(t *testing.T) {
	pol := &HealthPolicy{DeadAfter: 1, ProbeBase: 2 * time.Millisecond, ProbeMax: 50 * time.Millisecond}
	const n = 8
	draw := func() [n]time.Duration {
		var waits [n]time.Duration
		for i := 0; i < n; i++ {
			g := newGuard(string(rune('a'+i))+"!guard", "h", nil, pol)
			g.mu.Lock()
			waits[i] = g.jitteredWaitLocked()
			g.mu.Unlock()
		}
		return waits
	}
	first := draw()
	distinct := make(map[time.Duration]bool)
	for i, w := range first {
		distinct[w] = true
		if w < time.Millisecond || w >= 2*time.Millisecond {
			t.Fatalf("guard %d wait %v outside [base/2, base)", i, w)
		}
	}
	if len(distinct) < 6 {
		t.Fatalf("only %d distinct probe waits across %d guards: %v", len(distinct), n, first)
	}
	if second := draw(); second != first {
		t.Fatalf("jitter not deterministic across runs:\n%v\n%v", first, second)
	}
	// Consecutive probes of one guard draw fresh jitter too.
	g := newGuard("a!guard", "h", nil, pol)
	g.mu.Lock()
	w1 := g.jitteredWaitLocked()
	w2 := g.jitteredWaitLocked()
	g.mu.Unlock()
	if w1 == w2 {
		t.Fatalf("consecutive probe waits identical: %v", w1)
	}
}
