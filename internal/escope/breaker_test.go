package escope

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eventspace/internal/hrtime"
	"eventspace/internal/pastset"
	"eventspace/internal/paths"
	"eventspace/internal/vclock"
	"eventspace/internal/vnet"
)

// slowChild is a wrapper whose replies the test can hold back at will,
// standing in for a straggling guard+stub chain underneath a breaker.
// A held call waits on a clock-aware condition, so under the virtual
// clock the model idles (and deadlines fire) while it is held.
type slowChild struct {
	ops atomic.Int64

	mu      sync.Mutex
	cond    *vclock.Cond // on mu; nil until the first block
	holding bool
	rep     paths.Reply
	err     error
}

func (c *slowChild) Name() string { return "slowchild" }

func (c *slowChild) Op(ctx *paths.Ctx, req paths.Request) (paths.Reply, error) {
	c.ops.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.holding {
		c.cond.Wait()
	}
	// Read after the hold so a reply installed mid-call is observed.
	return c.rep, c.err
}

// block makes subsequent (and in-flight) calls wait until release.
func (c *slowChild) block() {
	c.mu.Lock()
	if c.cond == nil {
		c.cond = vclock.NewCond(&c.mu)
	}
	c.holding = true
	c.mu.Unlock()
}

func (c *slowChild) release() {
	c.mu.Lock()
	c.holding = false
	if c.cond != nil {
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

func (c *slowChild) set(rep paths.Reply, err error) {
	c.mu.Lock()
	c.rep, c.err = rep, err
	c.mu.Unlock()
}

func testBreaker(pol *BreakerPolicy, child paths.Wrapper, m Mode) (*breaker, *atomic.Int32) {
	var mode atomic.Int32
	mode.Store(int32(m))
	return newBreaker("test!breaker", "child", child, pol, &mode), &mode
}

func TestBreakerStrictModePassThrough(t *testing.T) {
	virtual(t)
	child := &slowChild{}
	child.set(paths.Reply{Ret: 1, Data: []byte{42}}, nil)
	b, mode := testBreaker(&BreakerPolicy{}, child, ModeStrict)
	ctx := &paths.Ctx{Thread: "t"}

	rep, err := op(b, ctx, paths.Request{Kind: paths.OpRead})
	if err != nil || rep.Ret != 1 || len(rep.Data) != 1 {
		t.Fatalf("strict pass-through: %+v, %v", rep, err)
	}
	appErr := errors.New("app")
	child.set(paths.Reply{}, appErr)
	if _, err := op(b, ctx, paths.Request{Kind: paths.OpRead}); !errors.Is(err, appErr) {
		t.Fatalf("strict app error: %v", err)
	}
	h := b.snapshot()
	if h.State != BreakerClosed || h.HasData || h.TotalOverruns != 0 || h.Skips != 0 {
		t.Fatalf("strict mode left accounting: %+v", h)
	}

	// Off-strict the breaker engages: a prompt answer is recorded.
	mode.Store(int32(ModeSummary))
	child.set(paths.Reply{Ret: 1, Data: []byte{7}}, nil)
	rep, err = op(b, ctx, paths.Request{Kind: paths.OpRead})
	if err != nil || len(rep.Data) != 1 {
		t.Fatalf("summary-mode op: %+v, %v", rep, err)
	}
	if h := b.snapshot(); !h.HasData {
		t.Fatalf("summary-mode success not recorded: %+v", h)
	}
}

func TestBreakerDeadlineOverrunTripAndStaleDelivery(t *testing.T) {
	virtual(t)
	child := &slowChild{}
	pol := &BreakerPolicy{
		RoundDeadline:  2 * time.Millisecond,
		TripAfter:      2,
		ReopenBase:     10 * time.Second, // no trial during the test
		ReopenMax:      10 * time.Second,
		StalenessBound: time.Hour,
	}
	b, _ := testBreaker(pol, child, ModeBounded)
	ctx := &paths.Ctx{Thread: "t"}
	req := paths.Request{Kind: paths.OpRead}

	child.block()
	defer child.release()

	// Round 1: the call overruns the deadline and is abandoned.
	rep, err := op(b, ctx, req)
	if err != nil || len(rep.Data) != 0 {
		t.Fatalf("overrun round: %+v, %v", rep, err)
	}
	h := b.snapshot()
	if h.State != BreakerClosed || h.Overruns != 1 || !h.Pending {
		t.Fatalf("after first overrun: %+v", h)
	}

	// Round 2: the abandoned call is still running — another overrun,
	// which reaches TripAfter and opens the breaker.
	if rep, err := op(b, ctx, req); err != nil || len(rep.Data) != 0 {
		t.Fatalf("pending round: %+v, %v", rep, err)
	}
	h = b.snapshot()
	if h.State != BreakerOpen || h.Overruns != 2 || h.Trips != 1 || h.Skips != 1 {
		t.Fatalf("after trip: %+v", h)
	}

	// The child finally answers: its late result is delivered as stale
	// data on a later round, and the breaker stays open.
	child.set(paths.Reply{Ret: 1, Data: []byte{7}}, nil)
	child.release()
	var stale paths.Reply
	for i := 0; i < 2000; i++ {
		stale, err = op(b, ctx, req)
		if err != nil {
			t.Fatalf("stale round: %v", err)
		}
		if len(stale.Data) > 0 {
			break
		}
		hrtime.SleepOutside(time.Millisecond)
	}
	if len(stale.Data) != 1 || stale.Data[0] != 7 {
		t.Fatalf("late result not delivered stale: %+v", stale)
	}
	h = b.snapshot()
	if h.State != BreakerOpen || h.Stale != 1 || !h.HasData || h.Pending {
		t.Fatalf("after stale delivery: %+v", h)
	}

	// Open with fresh-enough data and a distant trial: rounds skip the
	// child entirely.
	skips := h.Skips
	if rep, err := op(b, ctx, req); err != nil || len(rep.Data) != 0 {
		t.Fatalf("skip round: %+v, %v", rep, err)
	}
	if h := b.snapshot(); h.Skips != skips+1 || h.State != BreakerOpen {
		t.Fatalf("open breaker did not skip: %+v", h)
	}
}

// TestBreakerStalenessBoundForcesTrial: an open breaker whose coasting
// data is beyond the staleness bound (here: no data was ever delivered)
// must trial the child immediately, ignoring the reopen backoff — and a
// successful trial closes the circuit.
func TestBreakerStalenessBoundForcesTrial(t *testing.T) {
	virtual(t)
	child := &slowChild{}
	pol := &BreakerPolicy{
		RoundDeadline:  2 * time.Millisecond,
		TripAfter:      2,
		ReopenBase:     10 * time.Second,
		ReopenMax:      10 * time.Second,
		StalenessBound: time.Hour,
	}
	b, _ := testBreaker(pol, child, ModeBounded)
	ctx := &paths.Ctx{Thread: "t"}
	req := paths.Request{Kind: paths.OpRead}

	child.block()
	op(b, ctx, req) // overrun 1
	op(b, ctx, req) // overrun 2 -> open
	h := b.snapshot()
	if h.State != BreakerOpen || h.HasData {
		t.Fatalf("setup: %+v", h)
	}
	if wait := time.Duration(h.NextTrial - hrtime.Now()); wait < 5*time.Second {
		t.Fatalf("reopen backoff suspiciously near: %v", wait)
	}

	// Release with an empty reply: the pending result is discarded, and
	// with no data to coast on the next round trials the child at once —
	// ten seconds ahead of the scheduled reopen — and closes on success.
	child.set(paths.Reply{}, nil)
	child.release()
	for i := 0; i < 2000 && b.snapshot().State != BreakerClosed; i++ {
		if _, err := op(b, ctx, req); err != nil {
			t.Fatal(err)
		}
		hrtime.SleepOutside(time.Millisecond)
	}
	h = b.snapshot()
	if h.State != BreakerClosed || h.Trips != 1 {
		t.Fatalf("forced trial did not close the breaker: %+v", h)
	}

	// Closed again: fresh data flows normally.
	child.set(paths.Reply{Ret: 1, Data: []byte{9}}, nil)
	rep, err := op(b, ctx, req)
	if err != nil || len(rep.Data) != 1 {
		t.Fatalf("post-recovery op: %+v, %v", rep, err)
	}
	if h := b.snapshot(); !h.HasData || h.Overruns != 0 {
		t.Fatalf("post-recovery accounting: %+v", h)
	}
}

// TestBreakerReopenBackoffDoubles pins the open-state backoff schedule:
// doubling per trip, capped, with the deterministic jitter drawing the
// next trial inside (0, wait].
func TestBreakerReopenBackoffDoubles(t *testing.T) {
	child := &slowChild{}
	pol := &BreakerPolicy{ReopenBase: 2 * time.Millisecond, ReopenMax: 5 * time.Millisecond}
	b, _ := testBreaker(pol, child, ModeBounded)
	now := hrtime.Now()

	waits := make([]time.Duration, 0, 3)
	trial := make([]time.Duration, 0, 3)
	for i := 0; i < 3; i++ {
		b.mu.Lock()
		if i > 0 {
			b.state = BreakerHalfOpen // a failed trial re-trips immediately
			b.overrunLocked(now)
		} else {
			b.tripLocked(now)
		}
		waits = append(waits, b.reopenWait)
		trial = append(trial, time.Duration(b.nextTrial-now))
		if b.state != BreakerOpen {
			t.Fatalf("trip %d: state %v", i, b.state)
		}
		b.mu.Unlock()
	}
	want := []time.Duration{2 * time.Millisecond, 4 * time.Millisecond, 5 * time.Millisecond}
	for i := range want {
		if waits[i] != want[i] {
			t.Fatalf("reopen wait %d = %v, want %v", i, waits[i], want[i])
		}
		if trial[i] < want[i]/2 || trial[i] >= want[i] {
			t.Fatalf("trial wait %d = %v outside jitter window [%v, %v)", i, trial[i], want[i]/2, want[i])
		}
	}
	if h := b.snapshot(); h.Trips != 3 {
		t.Fatalf("trips = %d", h.Trips)
	}
}

// TestBreakerGuardCoupling: guard death opens the breaker without waiting
// for deadline overruns; guard recovery closes it.
func TestBreakerGuardCoupling(t *testing.T) {
	child := &slowChild{}
	b, _ := testBreaker(&BreakerPolicy{}, child, ModeBounded)

	b.onGuardTransition(Transition{To: Dead, At: hrtime.Now()})
	if h := b.snapshot(); h.State != BreakerOpen || h.Trips != 1 {
		t.Fatalf("after guard death: %+v", h)
	}
	// A second death report is a no-op while already open.
	b.onGuardTransition(Transition{To: Dead, At: hrtime.Now()})
	if h := b.snapshot(); h.Trips != 1 {
		t.Fatalf("re-tripped while open: %+v", h)
	}
	b.onGuardTransition(Transition{To: Alive, At: hrtime.Now()})
	if h := b.snapshot(); h.State != BreakerClosed || h.Overruns != 0 {
		t.Fatalf("after guard recovery: %+v", h)
	}
}

// openCoastingBreaker builds a breaker parked on the decision hot path:
// open, coasting on fresh data, next trial far away — every Op skips.
func openCoastingBreaker() *breaker {
	child := &slowChild{}
	pol := &BreakerPolicy{StalenessBound: time.Hour}
	b, _ := testBreaker(pol, child, ModeBounded)
	b.noteSuccess(hrtime.Now(), 1)
	b.onGuardTransition(Transition{To: Dead, At: hrtime.Now() + hrtime.Stamp(time.Hour)})
	return b
}

// TestBreakerDecisionZeroAlloc is the breaker-decision allocation gate:
// the skip path — the decision every gather round makes for every open
// breaker — must not allocate.
func TestBreakerDecisionZeroAlloc(t *testing.T) {
	b := openCoastingBreaker()
	ctx := &paths.Ctx{Thread: "t"}
	req := paths.Request{Kind: paths.OpRead}
	allocs := testing.AllocsPerRun(1000, func() {
		rep, err := b.Op(ctx, req)
		if err != nil || len(rep.Data) != 0 {
			panic("skip path returned data")
		}
	})
	if allocs != 0 {
		t.Fatalf("breaker decision allocates %.1f allocs/op, want 0", allocs)
	}
	if h := b.snapshot(); h.State != BreakerOpen || h.Skips == 0 {
		t.Fatalf("hot path not exercised: %+v", h)
	}
}

func BenchmarkBreakerDecision(b *testing.B) {
	br := openCoastingBreaker()
	ctx := &paths.Ctx{Thread: "t"}
	req := paths.Request{Kind: paths.OpRead}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Op(ctx, req)
	}
}

// stormResult is one straggler-storm run's evidence.
type stormResult struct {
	durs []time.Duration // per-round pull durations (modelled time)
	cov  Coverage
	brs  []BreakerHealth
	now  hrtime.Stamp // when cov/brs were snapshotted
}

// runStragglerStorm drives a 5-host scope under the virtual clock with a
// seeded FaultSlow storm on h1 and h3, pulling round by round in the
// given mode, and returns the timing and coverage evidence.
func runStragglerStorm(t *testing.T, seed uint64, mode Mode, rounds int) stormResult {
	t.Helper()
	vclock.Enable(0, vclock.DefaultSeed)
	defer vclock.Disable()
	defer vclock.Quiesce(10 * time.Second)

	n := vnet.NewNetwork(vnet.FastEthernet, vnet.DefaultCostModel())
	fe, err := n.AddStandaloneHost("fe", 4)
	if err != nil {
		t.Fatal(err)
	}
	const nhosts = 5
	sources := make([]Source, nhosts)
	elems := make([]*pastset.Element, nhosts)
	for i := 0; i < nhosts; i++ {
		h, err := n.AddStandaloneHost(fmt.Sprintf("h%d", i), 2)
		if err != nil {
			t.Fatal(err)
		}
		elems[i] = testElem(t, fmt.Sprintf("trace%d", i), 4096, 16)
		sources[i] = Source{Host: h, Elem: elems[i], RecSize: 16}
	}

	pol := &BreakerPolicy{
		RoundDeadline:  time.Millisecond,
		TripAfter:      2,
		ReopenBase:     2 * time.Millisecond,
		ReopenMax:      8 * time.Millisecond,
		StalenessBound: 25 * time.Millisecond,
	}
	scope, err := Build(n, Spec{
		Name:        "storm",
		FrontEnd:    fe,
		RootHelpers: nhosts,
		Sources:     sources,
		Health:      &HealthPolicy{},
		Breaker:     pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	scope.SetMode(mode)
	defer scope.Close()

	// Factor 80: each message served by a slowed host takes an extra
	// (80-1) x 62µs x [0.5,1.5) ≈ 2.4–7.3ms — far beyond the 1ms round
	// deadline, while healthy round trips stay near 300µs.
	n.InjectFaults(vnet.FaultPlan{Seed: seed, Events: []vnet.FaultEvent{
		{At: 0, Kind: vnet.FaultSlow, Host: "h1", Factor: 80},
		{At: 0, Kind: vnet.FaultSlow, Host: "h3", Factor: 80},
	}})
	defer n.ClearFaults()

	res := stormResult{durs: make([]time.Duration, 0, rounds)}
	for r := 0; r < rounds; r++ {
		for _, e := range elems {
			rec := make([]byte, 16)
			rec[0] = byte(r)
			if _, err := e.WriteCopy(rec); err != nil {
				t.Fatal(err)
			}
		}
		ch := make(chan time.Duration, 1)
		vclock.Go(func() {
			ctx := &paths.Ctx{Thread: "storm/driver"}
			start := hrtime.Now()
			if _, err := scope.Pull(ctx); err != nil {
				t.Errorf("round %d pull: %v", r, err)
			}
			d := time.Duration(hrtime.Since(start))
			hrtime.Sleep(500 * time.Microsecond) // inter-round interval
			ch <- d
		})
		res.durs = append(res.durs, <-ch)
	}
	res.cov = scope.Coverage()
	res.brs = scope.Breakers()
	res.now = hrtime.Now()
	return res
}

func minmax(durs []time.Duration) (min, max time.Duration) {
	min, max = durs[0], durs[0]
	for _, d := range durs {
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	return
}

// TestStragglerStormBoundedStaleness is the chaos e2e of the degradation
// ladder: under a seeded FaultSlow storm on two of five children,
// bounded-staleness mode keeps every gather round within the configured
// deadline (stragglers are cut, tripped, and served stale within the
// staleness bound, with Coverage naming them), while strict mode on the
// same seed demonstrably stalls on every round.
func TestStragglerStormBoundedStaleness(t *testing.T) {
	slow := map[string]bool{"h1": true, "h3": true}
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			bounded := runStragglerStorm(t, seed, ModeBounded, 30)
			strict := runStragglerStorm(t, seed, ModeStrict, 6)

			// Bounded-staleness rounds stay within 2x the 1ms deadline
			// (the deadline plus healthy gather overhead) — every round,
			// from the first storm round on.
			_, bMax := minmax(bounded.durs)
			if lim := 2 * time.Millisecond; bMax > lim {
				t.Errorf("bounded round reached %v > %v", bMax, lim)
			}
			// Strict mode on the same seed waits out every straggler.
			sMin, _ := minmax(strict.durs)
			if floor := 2 * time.Millisecond; sMin < floor {
				t.Errorf("strict round took only %v — expected a stall >= %v", sMin, floor)
			}
			if sMin < 2*bMax {
				t.Errorf("strict rounds (min %v) not demonstrably slower than bounded (max %v)", sMin, bMax)
			}

			// Coverage: the slow children are reported as stale or
			// skipped — never missing (slowness is not death) — and the
			// healthy children are neither.
			cov := bounded.cov
			if len(cov.Missing) != 0 || cov.Reporting != cov.Expected {
				t.Errorf("coverage lost hosts: %+v", cov)
			}
			degraded := append(append([]string(nil), cov.Stale...), cov.Skipped...)
			if len(degraded) != len(slow) {
				t.Errorf("degraded hosts %v, want %v", degraded, slow)
			}
			for _, h := range degraded {
				if !slow[h] {
					t.Errorf("healthy host %s reported degraded (stale %v skipped %v)", h, cov.Stale, cov.Skipped)
				}
			}
			if cov.Bound != polStalenessBound {
				t.Errorf("coverage bound %v, want %v", cov.Bound, polStalenessBound)
			}

			// Breakers: the slow children's breakers tripped and served
			// stale data whose age never exceeds the staleness bound;
			// the healthy children's breakers never left closed.
			for _, bh := range bounded.brs {
				if slow[bh.Target] {
					if bh.Trips == 0 || bh.State == BreakerClosed {
						t.Errorf("slow child %s breaker never tripped: %+v", bh.Target, bh)
					}
					if bh.Stale == 0 || !bh.HasData {
						t.Errorf("slow child %s delivered no stale data: %+v", bh.Target, bh)
					}
					if age := time.Duration(bounded.now - bh.LastData); age > polStalenessBound {
						t.Errorf("slow child %s staleness %v exceeds bound %v", bh.Target, age, polStalenessBound)
					}
				} else if bh.State != BreakerClosed || bh.Trips != 0 {
					t.Errorf("healthy child %s breaker degraded: %+v", bh.Target, bh)
				}
			}

			// Strict mode leaves the ladder untouched: no breaker state,
			// no stale/skipped classification.
			if len(strict.cov.Stale) != 0 || len(strict.cov.Skipped) != 0 {
				t.Errorf("strict coverage degraded: %+v", strict.cov)
			}
			for _, bh := range strict.brs {
				if bh.State != BreakerClosed || bh.TotalOverruns != 0 {
					t.Errorf("strict mode engaged breaker %s: %+v", bh.Target, bh)
				}
			}
		})
	}
}

// polStalenessBound mirrors runStragglerStorm's policy for assertions.
const polStalenessBound = 25 * time.Millisecond
