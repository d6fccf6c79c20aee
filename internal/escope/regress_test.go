package escope

//lint:file-allow wallclock regression tests wait on real goroutines with wall-clock deadlines

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"eventspace/internal/hrtime"
	"eventspace/internal/paths"
	"eventspace/internal/vnet"
)

// trackedConns reports how many live connections the scope tracks.
func (s *Scope) trackedConns() int {
	s.connsMu.Lock()
	defer s.connsMu.Unlock()
	return len(s.conns)
}

// TestPullerStopConcurrent is the regression test for the Stop double-close
// race: two goroutines that both saw the stop channel open could both
// close it. Run with -race.
func TestPullerStopConcurrent(t *testing.T) {
	r := newRig(t)
	h := r.c1.Hosts()[0]
	e := testElem(t, "t", 8, 1)
	scope, err := Build(r.net, Spec{
		Name:     "stoprace",
		FrontEnd: r.fe,
		Sources:  []Source{{Host: h, Elem: e, RecSize: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer scope.Close()
	p := scope.StartPuller(time.Millisecond, nil)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Stop()
		}()
	}
	wg.Wait()
	p.Stop() // still idempotent after the concurrent stops
}

// killConns closes every connection the scope tracks without untracking
// them, simulating the transport dying under the stubs.
func killConns(s *Scope) {
	s.connsMu.Lock()
	conns := make([]*vnet.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.connsMu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// TestRedialPrunesReplacedConns is the regression test for the connection
// bookkeeping leak: every redial added a fresh connection to the scope's
// tracking without removing the stale one, so a flaky link grew the set
// without bound. It also covers sticky Close: a redial racing with Close
// must not leak a connection past shutdown.
func TestRedialPrunesReplacedConns(t *testing.T) {
	r := newRig(t)
	h := r.c1.Hosts()[0]
	e := testElem(t, "t", 64, 1)
	fill(t, e, []byte{1})
	scope, err := Build(r.net, Spec{
		Name:     "redial",
		FrontEnd: r.fe,
		Sources:  []Source{{Host: h, Elem: e, RecSize: 1}},
		Retry:    &paths.RetryPolicy{MaxAttempts: 3, BaseBackoff: 10 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := scope.trackedConns()
	if base == 0 {
		t.Fatal("no connections tracked after build")
	}
	for i := 0; i < 5; i++ {
		killConns(scope)
		if _, err := scope.Pull(nil); err != nil {
			t.Fatalf("pull %d after conn kill: %v", i, err)
		}
	}
	if got := scope.trackedConns(); got != base {
		t.Fatalf("tracked conns = %d after 5 redial rounds, want %d (leak)", got, base)
	}

	// Sticky Close: a redial after Close must fail and leave nothing
	// tracked.
	scope.Close()
	if _, err := scope.Pull(nil); err == nil {
		t.Fatal("pull succeeded after Close")
	}
	if got := scope.trackedConns(); got != 0 {
		t.Fatalf("tracked conns = %d after Close, want 0", got)
	}
}

// TestPullerErrorBackoff is the regression test for the pull-error hot
// loop: with interval 0 and a persistently failing scope, the gather
// thread spun at full speed. It must now back off (bounded error rate)
// and count the backoffs. Runs at real-time scale: newRig's 0.005 scale
// would shrink the backoff sleeps below the clock's resolution.
func TestPullerErrorBackoff(t *testing.T) {
	n := vnet.NewNetwork(vnet.FastEthernet, vnet.DefaultCostModel())
	c, err := n.AddCluster("a", "s1", 2, 2, vnet.GigabitEthernet)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := n.AddStandaloneHost("fe", 2)
	if err != nil {
		t.Fatal(err)
	}
	e := testElem(t, "t", 8, 1)
	scope, err := Build(n, Spec{
		Name:     "hot",
		FrontEnd: fe,
		Sources:  []Source{{Host: c.Hosts()[0], Elem: e, RecSize: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	scope.Close() // every pull fails from the start
	p := scope.StartPuller(0, nil)
	defer p.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for p.errcnt.Load() < 5 {
		if time.Now().After(deadline) {
			t.Fatal("puller produced fewer than 5 errors")
		}
		time.Sleep(time.Millisecond)
	}
	// By the fifth consecutive error the backoff is well above zero: a
	// 100ms window must see far fewer iterations than a hot loop's
	// hundreds of thousands.
	before := p.errcnt.Load()
	time.Sleep(100 * time.Millisecond)
	window := p.errcnt.Load() - before
	if window > 1000 {
		t.Fatalf("%d errors in 100ms: puller is hot-looping", window)
	}
	if p.backoffs.Load() == 0 {
		t.Fatal("no backoffs counted")
	}
}

// constSource is a local wrapper whose every read returns the same
// non-empty payload, so pulls always succeed with data and the sink
// always runs.
type constSource struct {
	data []byte
}

func (c *constSource) Name() string { return "const" }
func (c *constSource) Op(*paths.Ctx, paths.Request) (paths.Reply, error) {
	return paths.Reply{Data: c.data}, nil
}

// TestPullerSinkErrorBackoff is the regression test for the sink-error
// hot loop: pulls succeed but the sink (e.g. an archive writer whose
// disk is gone) fails every time. The loop counted those errors but
// never backed off, re-pulling and discarding a batch at full speed.
// It must now apply the same capped exponential backoff as pull errors.
// Runs at real-time scale like TestPullerErrorBackoff.
func TestPullerSinkErrorBackoff(t *testing.T) {
	n := vnet.NewNetwork(vnet.FastEthernet, vnet.DefaultCostModel())
	c, err := n.AddCluster("a", "s1", 2, 2, vnet.GigabitEthernet)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := n.AddStandaloneHost("fe", 2)
	if err != nil {
		t.Fatal(err)
	}
	scope, err := Build(n, Spec{
		Name:     "sinkhot",
		FrontEnd: fe,
		Sources:  []Source{{Host: c.Hosts()[0], Custom: &constSource{data: []byte{1, 2, 3}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer scope.Close()
	p := scope.StartPuller(0, func(paths.Reply) error {
		return fmt.Errorf("archive writer: disk gone")
	})
	defer p.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for p.errcnt.Load() < 5 {
		if time.Now().After(deadline) {
			t.Fatal("puller produced fewer than 5 sink errors")
		}
		time.Sleep(time.Millisecond)
	}
	before := p.errcnt.Load()
	time.Sleep(100 * time.Millisecond)
	window := p.errcnt.Load() - before
	if window > 1000 {
		t.Fatalf("%d sink errors in 100ms: puller is hot-looping", window)
	}
	if p.backoffs.Load() == 0 {
		t.Fatal("no backoffs counted for sink errors")
	}
}

// TestCloseConcurrentWithRedialStorm is the regression test for the
// sticky-close race under load: pullers redialling dead connections
// while Close runs concurrently. The addConn/closed handshake must
// guarantee that whichever side wins, no connection outlives Close —
// a redial that lands after Close is refused and its fresh connection
// closed on the spot. Run with -race.
func TestCloseConcurrentWithRedialStorm(t *testing.T) {
	r := newRig(t)
	h := r.c1.Hosts()[0]
	e := testElem(t, "t", 64, 1)
	fill(t, e, []byte{1})
	scope, err := Build(r.net, Spec{
		Name:     "closerace",
		FrontEnd: r.fe,
		Sources:  []Source{{Host: h, Elem: e, RecSize: 1}},
		Retry:    &paths.RetryPolicy{MaxAttempts: 3, BaseBackoff: 10 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	// Four pullers drive redials by killing tracked connections between
	// pulls; one goroutine closes the scope mid-storm.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ctx := &paths.Ctx{Thread: "storm"}
			for j := 0; j < 20; j++ {
				killConns(scope)
				_, _ = scope.Pull(ctx) // errors expected once Close lands
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		time.Sleep(200 * time.Microsecond)
		scope.Close()
	}()
	close(start)
	wg.Wait()
	if got := scope.trackedConns(); got != 0 {
		t.Fatalf("tracked conns = %d after concurrent Close, want 0 (leak past shutdown)", got)
	}
	if _, err := scope.Pull(nil); err == nil {
		t.Fatal("pull succeeded after Close")
	}
}

// TestCloseConcurrentWithStartPuller is the regression test for closing
// a scope while gather threads are being started against it: the pullers
// must settle into the error backoff (no panic, no leaked connection)
// and stop cleanly. Run with -race.
func TestCloseConcurrentWithStartPuller(t *testing.T) {
	r := newRig(t)
	h := r.c1.Hosts()[0]
	e := testElem(t, "t", 8, 1)
	fill(t, e, []byte{1})
	scope, err := Build(r.net, Spec{
		Name:     "startclose",
		FrontEnd: r.fe,
		Sources:  []Source{{Host: h, Elem: e, RecSize: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pullers := make(chan *Puller, 4)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			pullers <- scope.StartPuller(10*time.Microsecond, nil)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		scope.Close()
	}()
	close(start)
	wg.Wait()
	close(pullers)
	for p := range pullers {
		p.Stop()
	}
	if got := scope.trackedConns(); got != 0 {
		t.Fatalf("tracked conns = %d after Close, want 0", got)
	}
}

// TestCloseConcurrentWithBreakerInflight is the regression test for
// sticky Close racing the breaker's background calls: outside strict
// mode an overrunning child call keeps running past its round deadline
// on a breaker goroutine, and Close must not race its stub's connection
// use or leave its redial attempts tracked. Run with -race.
func TestCloseConcurrentWithBreakerInflight(t *testing.T) {
	r := newRig(t)
	h0, h1 := r.c1.Hosts()[0], r.c1.Hosts()[1]
	e0 := testElem(t, "t0", 64, 1)
	e1 := testElem(t, "t1", 64, 1)
	fill(t, e0, []byte{1})
	fill(t, e1, []byte{2})
	scope, err := Build(r.net, Spec{
		Name:     "brkclose",
		FrontEnd: r.fe,
		Sources: []Source{
			{Host: h0, Elem: e0, RecSize: 1},
			{Host: h1, Elem: e1, RecSize: 1},
		},
		Retry:  &paths.RetryPolicy{MaxAttempts: 2, BaseBackoff: 10 * time.Microsecond},
		Health: &HealthPolicy{},
		// A deadline far below the rig's modelled RTT: every round
		// overruns, parking an inflight call on a breaker goroutine.
		Breaker: &BreakerPolicy{RoundDeadline: time.Nanosecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	scope.SetMode(ModeBounded)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ctx := &paths.Ctx{Thread: "inflight"}
			for j := 0; j < 10; j++ {
				_, _ = scope.Pull(ctx)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		time.Sleep(100 * time.Microsecond)
		scope.Close()
	}()
	close(start)
	wg.Wait()
	// Let parked inflight calls run into the closed connections and
	// finish their accounting before the final bookkeeping check.
	time.Sleep(2 * time.Millisecond)
	if got := scope.trackedConns(); got != 0 {
		t.Fatalf("tracked conns = %d after Close with inflight breaker calls, want 0", got)
	}
}

// TestCoverageStalenessUnprovenGuard is the regression test for coverage
// staleness: a guard that never succeeded reports its build time as
// LastOK, which pinned Staleness to the age of the scope (the whole run
// under the virtual clock, where build time is 0).
func TestCoverageStalenessUnprovenGuard(t *testing.T) {
	time.Sleep(5 * time.Millisecond) // ensure the clock is well past 0
	pol := &HealthPolicy{}
	proven := newGuard("g-ok", "h1", nil, pol)
	unproven := newGuard("g-never", "h2", nil, pol)
	proven.noteSuccess()
	okAt := proven.lastOK
	unproven.lastOK = 0 // built at the virtual epoch, never succeeded
	s := &Scope{coverPaths: map[string][]*guard{
		"h1": {proven},
		"h2": {unproven},
	}}
	time.Sleep(2 * time.Millisecond)
	cov := s.Coverage()
	if cov.Staleness <= 0 {
		t.Fatal("proven guard contributed no staleness")
	}
	if max := time.Duration(hrtime.Now() - okAt); cov.Staleness > max {
		t.Fatalf("Staleness = %v > %v: unproven guard's epoch LastOK counted", cov.Staleness, max)
	}
}
