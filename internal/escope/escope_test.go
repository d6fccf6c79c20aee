package escope

import (
	"errors"
	"sync"
	"testing"
	"time"

	"eventspace/internal/hrtime"
	"eventspace/internal/metrics"
	"eventspace/internal/pastset"
	"eventspace/internal/paths"
	"eventspace/internal/vclock"
	"eventspace/internal/vnet"
)

// rig is a two-cluster testbed with a front-end.
type rig struct {
	net *vnet.Network
	c1  *vnet.Cluster
	c2  *vnet.Cluster
	fe  *vnet.Host
}

// newRig builds the rig and runs the rest of the test on the
// discrete-event clock: every modelled delay takes its exact modelled
// value and no real time. The test goroutine is a driver: it waits with
// SleepOutside, pulls through pull, and starts goroutines with
// vclock.Go.
func newRig(t *testing.T) *rig {
	t.Helper()
	virtual(t)
	n := vnet.NewNetwork(vnet.FastEthernet, vnet.DefaultCostModel())
	c1, err := n.AddCluster("a", "s1", 3, 2, vnet.GigabitEthernet)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := n.AddCluster("b", "s1", 2, 2, vnet.GigabitEthernet)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := n.AddStandaloneHost("fe", 2)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{net: n, c1: c1, c2: c2, fe: fe}
}

// virtual runs the rest of the test on the discrete-event clock.
func virtual(t *testing.T) {
	t.Helper()
	vclock.Enable(0)
	t.Cleanup(func() {
		vclock.Quiesce(10 * time.Second)
		vclock.Disable()
	})
}

// inModel runs fn as a registered model goroutine and waits for it.
func inModel(fn func()) {
	done := make(chan struct{})
	vclock.Go(func() {
		defer close(done)
		fn()
	})
	<-done
}

// pull is s.Pull made from inside the model.
func pull(s *Scope, ctx *paths.Ctx) (rep paths.Reply, err error) {
	inModel(func() { rep, err = s.Pull(ctx) })
	return rep, err
}

// op is w.Op made from inside the model.
func op(w paths.Wrapper, ctx *paths.Ctx, req paths.Request) (rep paths.Reply, err error) {
	inModel(func() { rep, err = w.Op(ctx, req) })
	return rep, err
}

// testElem creates an element of recSize-byte records.
func testElem(t testing.TB, name string, capacity, recSize int) *pastset.Element {
	t.Helper()
	e, err := pastset.NewElementFixed(name, capacity, recSize)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func fill(t *testing.T, e *pastset.Element, recs ...[]byte) {
	t.Helper()
	for _, r := range recs {
		if _, err := e.WriteCopy(r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	r := newRig(t)
	if _, err := Build(r.net, Spec{Name: "s", Sources: []Source{{}}}); err == nil {
		t.Fatal("nil front-end accepted")
	}
	if _, err := Build(r.net, Spec{Name: "s", FrontEnd: r.fe}); err == nil {
		t.Fatal("no sources accepted")
	}
	if _, err := Build(r.net, Spec{Name: "s", FrontEnd: r.fe, Sources: []Source{{}}}); err == nil {
		t.Fatal("incomplete source accepted")
	}
	e := testElem(t, "x", 4, 1)
	if _, err := Build(r.net, Spec{Name: "s", FrontEnd: r.fe, Sources: []Source{
		{Host: r.c1.Hosts()[0], Elem: e, RecSize: 0},
	}}); err == nil {
		t.Fatal("bad record size accepted")
	}
}

func TestSingleClusterScopePullsAllTuples(t *testing.T) {
	r := newRig(t)
	h0, h1 := r.c1.Hosts()[0], r.c1.Hosts()[1]
	e0 := testElem(t, "t0", 16, 2)
	e1 := testElem(t, "t1", 16, 2)
	fill(t, e0, []byte{1, 1}, []byte{1, 2})
	fill(t, e1, []byte{2, 1})
	scope, err := Build(r.net, Spec{
		Name:     "lb",
		FrontEnd: r.fe,
		Sources: []Source{
			{Host: h0, Elem: e0, RecSize: 2},
			{Host: h1, Elem: e1, RecSize: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer scope.Close()
	rep, err := pull(scope, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ret != 3 || len(rep.Data) != 6 {
		t.Fatalf("pull: ret=%d len=%d", rep.Ret, len(rep.Data))
	}
	// Child order: host order of sources.
	want := []byte{1, 1, 1, 2, 2, 1}
	for i := range want {
		if rep.Data[i] != want[i] {
			t.Fatalf("data = % x, want % x", rep.Data, want)
		}
	}
	if scope.GatherRate() != 1 {
		t.Fatalf("GatherRate = %v", scope.GatherRate())
	}
	if scope.Pulls() != 1 {
		t.Fatalf("Pulls = %d", scope.Pulls())
	}
	if scope.Name() != "lb" || scope.root == nil || len(scope.readers) != 2 {
		t.Fatal("accessors wrong")
	}
}

func TestMultiClusterScopeGathersThroughGateways(t *testing.T) {
	r := newRig(t)
	srcs := []Source{
		{Host: r.c1.Hosts()[0], Elem: testElem(t, "a0", 8, 1), RecSize: 1},
		{Host: r.c1.Hosts()[2], Elem: testElem(t, "a2", 8, 1), RecSize: 1},
		{Host: r.c2.Hosts()[1], Elem: testElem(t, "b1", 8, 1), RecSize: 1},
	}
	fill(t, srcs[0].Elem, []byte{10})
	fill(t, srcs[1].Elem, []byte{11})
	fill(t, srcs[2].Elem, []byte{20})
	scope, err := Build(r.net, Spec{Name: "mc", FrontEnd: r.fe, Sources: srcs, GatewayHelpers: 2, RootHelpers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer scope.Close()
	rep, err := pull(scope, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ret != 3 {
		t.Fatalf("ret = %d", rep.Ret)
	}
	got := map[byte]bool{}
	for _, b := range rep.Data {
		got[b] = true
	}
	if !got[10] || !got[11] || !got[20] {
		t.Fatalf("data = % x", rep.Data)
	}
}

func TestScopeWithSourceOnGatewayAndFrontEnd(t *testing.T) {
	r := newRig(t)
	gwElem := testElem(t, "gw", 8, 1)
	feElem := testElem(t, "fe", 8, 1)
	fill(t, gwElem, []byte{7})
	fill(t, feElem, []byte{9})
	scope, err := Build(r.net, Spec{
		Name:     "edge",
		FrontEnd: r.fe,
		Sources: []Source{
			{Host: r.c1.Gateway(), Elem: gwElem, RecSize: 1},
			{Host: r.fe, Elem: feElem, RecSize: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer scope.Close()
	rep, err := pull(scope, nil)
	if err != nil || rep.Ret != 2 {
		t.Fatalf("pull: %+v %v", rep, err)
	}
}

func TestGatherRateReflectsOverwrites(t *testing.T) {
	r := newRig(t)
	h := r.c1.Hosts()[0]
	e := testElem(t, "t", 2, 1) // tiny: will overwrite
	scope, err := Build(r.net, Spec{
		Name:     "slow",
		FrontEnd: r.fe,
		Sources:  []Source{{Host: h, Elem: e, RecSize: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer scope.Close()
	for i := 0; i < 10; i++ {
		e.WriteCopy([]byte{byte(i)})
	}
	if _, err := pull(scope, nil); err != nil {
		t.Fatal(err)
	}
	// 8 of 10 overwritten before the cursor saw them.
	if got := scope.GatherRate(); got != 0.2 {
		t.Fatalf("GatherRate = %v, want 0.2", got)
	}
}

func TestPullerDrainsContinuously(t *testing.T) {
	r := newRig(t)
	h := r.c1.Hosts()[0]
	e := testElem(t, "t", 1024, 1)
	scope, err := Build(r.net, Spec{
		Name:     "drain",
		FrontEnd: r.fe,
		Sources:  []Source{{Host: h, Elem: e, RecSize: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer scope.Close()
	var mu sync.Mutex
	var got []byte
	p := scope.StartPuller(0, func(rep paths.Reply) error {
		mu.Lock()
		got = append(got, rep.Data...)
		mu.Unlock()
		return nil
	})
	for i := 0; i < 50; i++ {
		e.WriteCopy([]byte{byte(i)})
		hrtime.SleepOutside(time.Millisecond)
	}
	deadline := hrtime.Now() + int64(5*time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 50 {
			break
		}
		if hrtime.Now() > deadline {
			t.Fatalf("puller drained %d of 50 tuples", n)
		}
		hrtime.SleepOutside(time.Millisecond)
	}
	p.Stop()
	p.Stop() // idempotent
	if p.Pulls() == 0 {
		t.Fatal("no pulls counted")
	}
	for i := 0; i < 50; i++ {
		if got[i] != byte(i) {
			t.Fatalf("tuple %d = %d", i, got[i])
		}
	}
}

func TestPullerCountsErrors(t *testing.T) {
	r := newRig(t)
	h := r.c1.Hosts()[0]
	e := testElem(t, "t", 8, 1)
	scope, err := Build(r.net, Spec{
		Name:     "err",
		FrontEnd: r.fe,
		Sources:  []Source{{Host: h, Elem: e, RecSize: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Closing the scope's connections makes pulls fail.
	scope.Close()
	p := scope.StartPuller(time.Millisecond, nil)
	deadline := hrtime.Now() + int64(5*time.Second)
	for p.errcnt.Load() == 0 {
		if hrtime.Now() > deadline {
			t.Fatal("no errors counted after close")
		}
		hrtime.SleepOutside(time.Millisecond)
	}
	p.Stop()
}

func TestEmptyScopeRateIsOne(t *testing.T) {
	r := newRig(t)
	h := r.c1.Hosts()[0]
	e := testElem(t, "t", 8, 1)
	scope, err := Build(r.net, Spec{
		Name:     "empty",
		FrontEnd: r.fe,
		Sources:  []Source{{Host: h, Elem: e, RecSize: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer scope.Close()
	if scope.GatherRate() != 1 {
		t.Fatalf("GatherRate = %v", scope.GatherRate())
	}
}

// scopeOwners are the owners of a scope's counts the test has seen:
// every guard (with its stub underneath) and puller, torn down or not.
type scopeOwners struct {
	guards  []*guard
	pullers []*Puller
}

// see adds the scope's current guards to the ones already seen.
func (o *scopeOwners) see(s *Scope) {
	s.treeMu.Lock()
	defer s.treeMu.Unlock()
	for _, g := range s.guards {
		known := false
		for _, k := range o.guards {
			known = known || k == g
		}
		if !known {
			o.guards = append(o.guards, g)
		}
	}
}

// totals reads every counter the scope registers the second way: from
// the owners' own views, summed by hand. Breakers are read through
// Scope.Breakers, which keeps the torn-down ones; stubs, which export no
// count, through a registry of their own.
func (o *scopeOwners) totals(s *Scope) map[string]uint64 {
	p := s.name + "/"
	out := map[string]uint64{}
	stubs := metrics.New()
	for _, g := range o.guards {
		h := g.snapshot()
		out[p+"health.faults"] += h.Faults
		out[p+"health.recoveries"] += h.Recoveries
		out[p+"health.deaths"] += g.deaths.Load()
		g.child.(*paths.Remote).RegisterCounts(stubs, p+"stub")
	}
	for _, c := range stubs.Snapshot().Counters {
		out[c.Name] = c.Value
	}
	for _, b := range s.Breakers() {
		out[p+"breaker.trips"] += b.Trips
		out[p+"breaker.overruns"] += b.TotalOverruns
		out[p+"breaker.skips"] += b.Skips
		out[p+"breaker.stale"] += b.Stale
	}
	for _, pl := range o.pullers {
		out[p+"puller.pulls"] += pl.Pulls()
		out[p+"puller.errors"] += pl.errcnt.Load()
		out[p+"puller.backoffs"] += pl.backoffs.Load()
	}
	return out
}

// counterMap is a snapshot's counters by name.
func counterMap(s metrics.Snapshot) map[string]uint64 {
	out := make(map[string]uint64, len(s.Counters))
	for _, c := range s.Counters {
		out[c.Name] = c.Value
	}
	return out
}

// gatherUntil is pullUntil for a scope whose breakers race each pull
// against its deadline, which needs a thread context.
func gatherUntil(t *testing.T, s *Scope, d time.Duration, cond func() bool) bool {
	t.Helper()
	ctx := &paths.Ctx{Thread: "views/gather"}
	deadline := hrtime.Now() + int64(d)
	for hrtime.Now() < deadline {
		if cond() {
			return true
		}
		pull(s, ctx)
		hrtime.SleepOutside(500 * time.Microsecond)
	}
	return cond()
}

// quiesce pulls in bounded mode until no breaker has a call in flight:
// after that nothing below the scope runs until the next pull, so the
// registry and the owners can be read at one instant.
func quiesce(t *testing.T, s *Scope) {
	t.Helper()
	mode := s.Mode()
	s.SetMode(ModeBounded)
	defer s.SetMode(mode)
	if !gatherUntil(t, s, 5*time.Second, func() bool {
		for _, b := range s.Breakers() {
			if b.Pending {
				return false
			}
		}
		return true
	}) {
		t.Fatalf("breaker calls still in flight: %+v", s.Breakers())
	}
}

// checkViews holds the registry's counters to the owners' views, name by
// name, and returns the registry's.
func checkViews(t *testing.T, phase string, reg *metrics.Registry, s *Scope, o *scopeOwners) map[string]uint64 {
	t.Helper()
	got := counterMap(reg.Snapshot())
	want := o.totals(s)
	if len(got) != len(want) {
		t.Errorf("%s: registry counters %v, owners' %v", phase, got, want)
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || g != w {
			t.Errorf("%s: %s = %d (registered %t), owners count %d", phase, name, g, ok, w)
		}
	}
	return got
}

// TestScopeCountersReadOwners is the scope half of "one count, two
// views": the repair rig, with Health, Retry and Breaker on one
// registry, runs a puller whose sink fails, a straggler storm, a member
// crash and restart, and a gateway crash repaired by ReparentHost. At
// each quiesced instant every counter equals the sum of its owners'
// own counts, the links the repair tore down included, and no total
// taken before the repair exceeds the one after it.
func TestScopeCountersReadOwners(t *testing.T) {
	r := newRig(t)
	reg := metrics.New()
	elems := make(map[string]*pastset.Element)
	spec := Spec{
		Name:     "views",
		FrontEnd: r.fe,
		Health:   &HealthPolicy{DeadAfter: 2, ProbeBase: time.Millisecond, ProbeMax: 4 * time.Millisecond},
		Retry:    &paths.RetryPolicy{MaxAttempts: 2, BaseBackoff: 50 * time.Microsecond},
		Breaker: &BreakerPolicy{
			RoundDeadline: time.Millisecond, TripAfter: 2,
			ReopenBase: 2 * time.Millisecond, ReopenMax: 8 * time.Millisecond,
			StalenessBound: 25 * time.Millisecond,
		},
		Metrics: reg,
	}
	hosts := append(append([]*vnet.Host(nil), r.c1.Hosts()...), r.c2.Hosts()...)
	for _, h := range hosts {
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
	o := &scopeOwners{}
	o.see(scope)
	write := func() {
		for _, e := range elems {
			fill(t, e, []byte{1})
		}
	}
	if !gatherUntil(t, scope, 5*time.Second, func() bool { return scope.Coverage().Complete() }) {
		t.Fatalf("initial coverage never completed: %+v", scope.Coverage())
	}

	// A puller whose sink fails: every pull with data counts an error and
	// the loop backs off.
	p := scope.StartPuller(0, func(paths.Reply) error { return errors.New("sink down") })
	o.pullers = append(o.pullers, p)
	deadline := hrtime.Now() + int64(5*time.Second)
	for p.errcnt.Load() < 3 || p.backoffs.Load() == 0 {
		if hrtime.Now() > deadline {
			t.Fatalf("puller: %d pulls, %d errors, %d backoffs", p.Pulls(), p.errcnt.Load(), p.backoffs.Load())
		}
		write()
		hrtime.SleepOutside(time.Millisecond)
	}
	p.Stop()

	// A straggler storm on one member of each cluster, gathered in
	// bounded-staleness mode until the breakers have tripped, skipped and
	// served stale data.
	storm := []vnet.FaultEvent{
		{Kind: vnet.FaultSlow, Host: r.c1.Hosts()[1].Name(), Factor: 80},
		{Kind: vnet.FaultSlow, Host: r.c2.Hosts()[1].Name(), Factor: 80},
	}
	r.net.InjectFaults(vnet.FaultPlan{Seed: 5, Events: storm})
	scope.SetMode(ModeBounded)
	if !gatherUntil(t, scope, 10*time.Second, func() bool {
		write()
		var trips, skips, stale uint64
		for _, b := range scope.Breakers() {
			trips, skips, stale = trips+b.Trips, skips+b.Skips, stale+b.Stale
		}
		return trips > 0 && skips > 0 && stale > 0
	}) {
		t.Fatalf("storm tripped no breaker: %+v", scope.Breakers())
	}
	r.net.ClearFaults()
	quiesce(t, scope)
	scope.SetMode(ModeStrict)

	// A member crashes and restarts: faults, a death, retries over the
	// dead connection, and a recovery.
	member := r.c2.Hosts()[1].Name()
	r.net.InjectFaults(vnet.FaultPlan{
		CallTimeout: 200 * time.Microsecond,
		Events:      []vnet.FaultEvent{{Kind: vnet.FaultCrash, Host: member}},
	})
	if !gatherUntil(t, scope, 5*time.Second, func() bool { return len(scope.Coverage().Missing) > 0 }) {
		t.Fatalf("member crash never cut coverage: %+v", scope.Coverage())
	}
	r.net.ClearFaults()
	r.net.InjectFaults(vnet.FaultPlan{Events: []vnet.FaultEvent{{Kind: vnet.FaultRestart, Host: member}}})
	if !gatherUntil(t, scope, 5*time.Second, func() bool { return scope.Coverage().Complete() }) {
		t.Fatalf("member restart never healed coverage: %+v", scope.Coverage())
	}
	r.net.ClearFaults()

	// Cluster a's gateway crashes and its uplink dies.
	r.net.InjectFaults(vnet.FaultPlan{
		CallTimeout: 200 * time.Microsecond,
		Events:      []vnet.FaultEvent{{Kind: vnet.FaultCrash, Host: r.c1.Gateway().Name()}},
	})
	defer r.net.ClearFaults()
	if !gatherUntil(t, scope, 5*time.Second, func() bool {
		a := clusterByName(scope.Topology(), "a")
		return a != nil && a.UplinkState == Dead
	}) {
		t.Fatalf("uplink never died: %+v", scope.Health())
	}
	before := checkViews(t, "before the repair", reg, scope, o)
	for _, name := range []string{"health.faults", "health.deaths", "health.recoveries",
		"stub.retries", "stub.redials", "breaker.trips", "breaker.overruns", "breaker.skips",
		"breaker.stale", "puller.pulls", "puller.errors", "puller.backoffs"} {
		if before["views/"+name] == 0 {
			t.Errorf("the rig never moved views/%s: %v", name, before)
		}
	}

	// The repair tears down cluster a's uplink and its members' links;
	// their counts stay in the totals.
	for _, h := range r.c1.Hosts() {
		if err := scope.ReparentHost(h.Name(), "b"); err != nil {
			t.Fatalf("reparent %s: %v", h.Name(), err)
		}
	}
	o.see(scope)
	write()
	if !gatherUntil(t, scope, 5*time.Second, func() bool { return scope.Coverage().Complete() }) {
		t.Fatalf("no recovery after reparent: %+v", scope.Coverage())
	}
	quiesce(t, scope)
	after := checkViews(t, "after the repair", reg, scope, o)
	for name, b := range before {
		if after[name] < b {
			t.Errorf("%s went back from %d to %d across the repair", name, b, after[name])
		}
	}
}
