package escope

import (
	"testing"
	"time"

	"eventspace/internal/hrtime"
	"eventspace/internal/paths"
	"eventspace/internal/vnet"
)

// toggleChild is a wrapper whose failure mode the test flips at will.
type toggleChild struct {
	err error
	ops int
}

func (c *toggleChild) Name() string { return "toggle" }
func (c *toggleChild) Op(ctx *paths.Ctx, req paths.Request) (paths.Reply, error) {
	c.ops++
	if c.err != nil {
		return paths.Reply{}, c.err
	}
	return paths.Reply{Ret: 1, Data: []byte{9}}, nil
}

func TestGuardStateMachine(t *testing.T) {
	r := newRig(t)
	h := r.c1.Hosts()[0]
	child := &toggleChild{}
	pol := &HealthPolicy{DeadAfter: 2, ProbeBase: 2 * time.Millisecond, ProbeMax: 4 * time.Millisecond}
	g := newGuard("g", h.Name(), child, pol)

	// Healthy: ops pass through, state alive.
	if rep, err := g.Op(nil, paths.Request{Kind: paths.OpRead}); err != nil || rep.Ret != 1 {
		t.Fatalf("healthy op: %+v, %v", rep, err)
	}
	if g.snapshot().State != Alive {
		t.Fatalf("state = %v", g.snapshot().State)
	}

	// First transport fault: absorbed, suspect. Second: dead.
	child.err = vnet.ErrTimeout
	if rep, err := g.Op(nil, paths.Request{Kind: paths.OpRead}); err != nil || rep.Ret != 0 {
		t.Fatalf("fault op: %+v, %v", rep, err)
	}
	if g.snapshot().State != Suspect {
		t.Fatalf("after 1 fault: %v", g.snapshot().State)
	}
	g.Op(nil, paths.Request{Kind: paths.OpRead})
	if g.snapshot().State != Dead {
		t.Fatalf("after 2 faults: %v", g.snapshot().State)
	}

	// While dead and before the probe time, ops are skipped entirely.
	before := child.ops
	g.Op(nil, paths.Request{Kind: paths.OpRead})
	if child.ops != before {
		t.Fatal("dead child attempted before probe time")
	}
	snap := g.snapshot()
	if snap.Skips == 0 || snap.Faults != 2 || snap.State != Dead {
		t.Fatalf("snapshot = %+v", snap)
	}

	// At probe time exactly one attempt goes through; a failed probe
	// re-arms the (doubled, capped) backoff.
	hrtime.SleepOutside(3 * time.Millisecond)
	g.Op(nil, paths.Request{Kind: paths.OpRead})
	if child.ops != before+1 {
		t.Fatalf("probe attempts = %d, want 1", child.ops-before)
	}
	g.Op(nil, paths.Request{Kind: paths.OpRead}) // still before next probe
	if child.ops != before+1 {
		t.Fatal("second attempt before backed-off probe time")
	}

	// The child heals; the next probe recovers it.
	child.err = nil
	hrtime.SleepOutside(5 * time.Millisecond)
	if rep, err := g.Op(nil, paths.Request{Kind: paths.OpRead}); err != nil || rep.Ret != 1 {
		t.Fatalf("recovery op: %+v, %v", rep, err)
	}
	snap = g.snapshot()
	if snap.State != Alive || snap.Fails != 0 || snap.Recoveries != 1 {
		t.Fatalf("after recovery: %+v", snap)
	}
}

func TestGuardPropagatesApplicationErrors(t *testing.T) {
	r := newRig(t)
	h := r.c1.Hosts()[0]
	child := &toggleChild{err: &paths.RemoteError{Msg: "bad request"}}
	g := newGuard("g", h.Name(), child, &HealthPolicy{})
	if _, err := g.Op(nil, paths.Request{Kind: paths.OpRead}); !paths.IsRemote(err) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	// Application errors are not health signals.
	if g.snapshot().State != Alive || g.snapshot().Faults != 0 {
		t.Fatalf("app error changed health: %+v", g.snapshot())
	}
}

// pullUntil pulls the scope until cond holds or the deadline passes.
func pullUntil(t *testing.T, s *Scope, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := hrtime.Now() + int64(d)
	for hrtime.Now() < deadline {
		if cond() {
			return true
		}
		pull(s, nil)
		hrtime.SleepOutside(500 * time.Microsecond)
	}
	return cond()
}

// waitUntil polls cond until it holds or the deadline passes. Unlike
// pullUntil it pulls nothing itself: it is for conditions that pull and
// must see every reply (a pull made on the side would drain the record
// the condition is waiting for, and discard it).
func waitUntil(d time.Duration, cond func() bool) bool {
	for deadline := hrtime.Now() + int64(d); hrtime.Now() < deadline; hrtime.SleepOutside(500 * time.Microsecond) {
		if cond() {
			return true
		}
	}
	return false
}

func TestScopeCoverageDipsAndRecovers(t *testing.T) {
	r := newRig(t)
	good, bad := r.c1.Hosts()[0], r.c2.Hosts()[1]
	eGood := testElem(t, "good", 64, 1)
	eBad := testElem(t, "bad", 64, 1)
	fill(t, eGood, []byte{1})
	fill(t, eBad, []byte{2})
	scope, err := Build(r.net, Spec{
		Name:     "cov",
		FrontEnd: r.fe,
		Sources: []Source{
			{Host: good, Elem: eGood, RecSize: 1},
			{Host: bad, Elem: eBad, RecSize: 1},
		},
		Health: &HealthPolicy{DeadAfter: 2, ProbeBase: time.Millisecond, ProbeMax: 4 * time.Millisecond},
		Retry:  &paths.RetryPolicy{MaxAttempts: 2, BaseBackoff: 50 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer scope.Close()

	rep, err := pull(scope, nil)
	if err != nil || rep.Ret != 2 {
		t.Fatalf("healthy pull: %+v, %v", rep, err)
	}
	if cov := scope.Coverage(); !cov.Complete() || cov.Expected != 2 {
		t.Fatalf("healthy coverage: %+v", cov)
	}

	// Crash the host behind one source: pulls keep succeeding on partial
	// data and coverage reports the gap.
	r.net.InjectFaults(vnet.FaultPlan{
		CallTimeout: 200 * time.Microsecond,
		Events:      []vnet.FaultEvent{{Kind: vnet.FaultCrash, Host: bad.Name()}},
	})
	if !pullUntil(t, scope, 5*time.Second, func() bool { return !scope.Coverage().Complete() }) {
		t.Fatalf("coverage never dipped: %+v", scope.Coverage())
	}
	cov := scope.Coverage()
	if cov.Reporting != 1 || len(cov.Missing) != 1 || cov.Missing[0] != bad.Name() {
		t.Fatalf("degraded coverage: %+v", cov)
	}
	// The gather itself still succeeds — that is the whole point.
	if _, err := pull(scope, nil); err != nil {
		t.Fatalf("degraded pull failed: %v", err)
	}

	// Data written while the host is down survives in its source buffer.
	fill(t, eBad, []byte{3})

	// Heal: probes redial, the guard recovers, and the missed record is
	// delivered on the first successful pull (cursor persistence).
	r.net.ClearFaults()
	r.net.InjectFaults(vnet.FaultPlan{
		Events: []vnet.FaultEvent{{Kind: vnet.FaultRestart, Host: bad.Name()}},
	})
	sawMissed := false
	recovered := waitUntil(10*time.Second, func() bool {
		rep, err := pull(scope, nil)
		if err == nil {
			for _, b := range rep.Data {
				if b == 3 {
					sawMissed = true
				}
			}
		}
		return sawMissed && scope.Coverage().Complete()
	})
	if !recovered {
		t.Fatalf("no recovery: coverage %+v, sawMissed %v, health %+v",
			scope.Coverage(), sawMissed, scope.Health())
	}
	var recoveries uint64
	for _, h := range scope.Health() {
		recoveries += h.Recoveries
	}
	if recoveries == 0 {
		t.Fatalf("no guard recorded a recovery: %+v", scope.Health())
	}
	r.net.ClearFaults()
}

func TestScopeWithoutHealthStillFailsFast(t *testing.T) {
	r := newRig(t)
	h := r.c1.Hosts()[0]
	e := testElem(t, "x", 8, 1)
	fill(t, e, []byte{1})
	scope, err := Build(r.net, Spec{
		Name:     "legacy",
		FrontEnd: r.fe,
		Sources:  []Source{{Host: h, Elem: e, RecSize: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer scope.Close()
	if _, err := pull(scope, nil); err != nil {
		t.Fatal(err)
	}
	r.net.InjectFaults(vnet.FaultPlan{
		CallTimeout: 200 * time.Microsecond,
		Events:      []vnet.FaultEvent{{Kind: vnet.FaultCrash, Host: h.Name()}},
	})
	defer r.net.ClearFaults()
	failed := false
	deadline := hrtime.Now() + int64(5*time.Second)
	for hrtime.Now() < deadline && !failed {
		_, err := pull(scope, nil)
		failed = err != nil
	}
	if !failed {
		t.Fatal("legacy scope never surfaced the fault")
	}
	// Legacy scopes report blanket coverage: no guards, nothing missing.
	if cov := scope.Coverage(); !cov.Complete() {
		t.Fatalf("legacy coverage: %+v", cov)
	}
	if len(scope.Health()) != 0 {
		t.Fatal("legacy scope has guards")
	}
}
