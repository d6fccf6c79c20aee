package vnet

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"eventspace/internal/hrtime"
	"eventspace/internal/vclock"
)

// pollUntil polls cond from a driver every 200 µs of model time until it
// holds or d has passed. Under the virtual clock d is modelled time, and
// the poll cannot hang: an idle model lets the clock jump to the next
// poll. On the wall clock (the TCP tests) it is a busy poll bounded by
// real time.
func pollUntil(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := hrtime.Now() + int64(d)
	for hrtime.Now() < deadline {
		if cond() {
			return true
		}
		hrtime.SleepOutside(200 * time.Microsecond)
	}
	return cond()
}

// call makes one call from inside the model, returning the modelled
// time it took and its error.
func call(conn *Conn, p []byte) (time.Duration, error) {
	var err error
	var took int64
	inModel(func() {
		start := hrtime.Now()
		_, err = conn.Call(p)
		took = hrtime.Since(start)
	})
	return time.Duration(took), err
}

func TestFaultPlanDropSequenceDeterministic(t *testing.T) {
	rule := FaultRule{DropProb: 0.3}
	a := FaultPlan{Seed: 42}
	b := FaultPlan{Seed: 42}
	sa := a.DropSequence(rule, "tin-0", "tin-gw", 2000)
	sb := b.DropSequence(rule, "tin-0", "tin-gw", 2000)
	drops := 0
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("sequence diverges at %d", i)
		}
		if sa[i] {
			drops++
		}
	}
	// The draw should roughly honour the probability.
	if drops < 400 || drops > 800 {
		t.Fatalf("drops = %d of 2000 at p=0.3", drops)
	}
	// A different seed yields a different sequence.
	sc := FaultPlan{Seed: 43}.DropSequence(rule, "tin-0", "tin-gw", 2000)
	same := true
	for i := range sa {
		if sa[i] != sc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed 42 and 43 produced identical sequences")
	}
	// Different pairs draw independently.
	sd := FaultPlan{Seed: 42}.DropSequence(rule, "tin-1", "tin-gw", 2000)
	same = true
	for i := range sa {
		if sa[i] != sd[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two pairs produced identical sequences")
	}
}

func TestInjectorEventLogDeterministic(t *testing.T) {
	virtual(t)
	plan := FaultPlan{
		Seed: 7,
		Events: []FaultEvent{
			{At: 2 * time.Millisecond, Kind: FaultPartition, Cluster: "c"},
			{At: time.Millisecond, Kind: FaultCrash, Host: "c-0"},
			{At: 3 * time.Millisecond, Kind: FaultHeal, Cluster: "c"},
			{At: 3 * time.Millisecond, Kind: FaultRestart, Host: "c-0"},
		},
	}
	run := func() []FaultRecord {
		n := newTestNet(t)
		if _, err := n.AddCluster("c", "s", 2, 1, GigabitEthernet); err != nil {
			t.Fatal(err)
		}
		inj := n.InjectFaults(plan)
		if !pollUntil(t, 2*time.Second, func() bool { return len(inj.Log()) == len(plan.Events) }) {
			t.Fatalf("events not applied: log = %v", inj.Log())
		}
		return inj.Log()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("log diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Events apply sorted by At regardless of declaration order.
	if a[0].Kind != FaultCrash || a[1].Kind != FaultPartition {
		t.Fatalf("log order = %v", a)
	}
}

func TestCrashFailsCallsAndRestartRecovers(t *testing.T) {
	virtual(t)
	n := newTestNet(t)
	c, _ := n.AddCluster("c", "s", 2, 1, GigabitEthernet)
	client, server := c.Hosts()[0], c.Hosts()[1]
	echo := func(p []byte) ([]byte, error) { return p, nil }

	conn := n.Dial(client, server, echo)
	if _, err := call(conn, []byte{1}); err != nil {
		t.Fatalf("pre-fault call: %v", err)
	}

	n.InjectFaults(FaultPlan{Events: []FaultEvent{{At: 0, Kind: FaultCrash, Host: server.Name()}}})
	if !pollUntil(t, 2*time.Second, func() bool { return n.HostDown(server) }) {
		t.Fatal("crash not applied")
	}
	// The old connection was reset.
	if _, err := call(conn, []byte{2}); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("call on reset conn: %v", err)
	}
	// A fresh dial reaches a dead host: fast failure, not a hang.
	conn2 := n.Dial(client, server, echo)
	defer conn2.Close()
	if _, err := call(conn2, []byte{3}); !errors.Is(err, ErrHostDown) {
		t.Fatalf("call to down host: %v", err)
	}

	// Restart: the same fresh connection works again.
	n.ClearFaults()
	n.InjectFaults(FaultPlan{Events: []FaultEvent{{At: 0, Kind: FaultRestart, Host: server.Name()}}})
	if !pollUntil(t, 2*time.Second, func() bool { return !n.HostDown(server) }) {
		t.Fatal("restart not applied")
	}
	if _, err := call(conn2, []byte{4}); err != nil {
		t.Fatalf("call after restart: %v", err)
	}
}

// TestCrashResetsConnsBeforeHostDown: a crash is one transition. From
// the moment HostDown reports the host crashed, every connection dialled
// to it before the crash is already reset, so a call on any of them
// fails with ErrConnClosed, never ErrHostDown. Many connections widen
// the window a two-step crash (mark down, then reset) would leave open.
func TestCrashResetsConnsBeforeHostDown(t *testing.T) {
	virtual(t)
	n := newTestNet(t)
	c, _ := n.AddCluster("c", "s", 2, 1, GigabitEthernet)
	client, server := c.Hosts()[0], c.Hosts()[1]
	echo := func(p []byte) ([]byte, error) { return p, nil }
	conns := make([]*Conn, 256)
	for i := range conns {
		conns[i] = n.Dial(client, server, echo)
	}
	defer n.ClearFaults()

	n.InjectFaults(FaultPlan{Events: []FaultEvent{{At: 0, Kind: FaultCrash, Host: server.Name()}}})
	// The driver yield-spins rather than polling on model time, so it
	// reads HostDown while the injector may still be inside the crash:
	// that is the moment a two-step crash would show.
	deadline := time.Now().Add(2 * time.Second)
	for !n.HostDown(server) {
		if time.Now().After(deadline) {
			t.Fatal("crash not applied")
		}
		runtime.Gosched()
	}
	for i, conn := range conns {
		if _, err := call(conn, []byte{1}); !errors.Is(err, ErrConnClosed) {
			t.Fatalf("conn %d dialled before the crash: %v, want ErrConnClosed", i, err)
		}
	}
}

func TestPartitionTimesOutAndHeals(t *testing.T) {
	virtual(t)
	n := newTestNet(t)
	a, _ := n.AddCluster("a", "s", 1, 1, GigabitEthernet)
	b, _ := n.AddCluster("b", "s", 1, 1, GigabitEthernet)
	echo := func(p []byte) ([]byte, error) { return p, nil }
	cross := n.Dial(a.Hosts()[0], b.Hosts()[0], echo)
	defer cross.Close()
	intra := n.Dial(b.Hosts()[0], b.Gateway(), echo)
	defer intra.Close()

	inj := n.InjectFaults(FaultPlan{
		CallTimeout: 500 * time.Microsecond,
		Events:      []FaultEvent{{At: 0, Kind: FaultPartition, Cluster: "b"}},
	})
	if !pollUntil(t, 2*time.Second, func() bool { return len(inj.Log()) == 1 }) {
		t.Fatal("partition not applied")
	}
	if took, err := call(cross, []byte{1}); !errors.Is(err, ErrTimeout) || took != 500*time.Microsecond {
		t.Fatalf("cross-partition call: %v after %v, want a timeout after 500µs", err, took)
	}
	// Intra-cluster traffic inside the partitioned cluster still works.
	if _, err := call(intra, []byte{2}); err != nil {
		t.Fatalf("intra-cluster call: %v", err)
	}

	n.ClearFaults()
	if _, err := call(cross, []byte{3}); err != nil {
		t.Fatalf("call after heal: %v", err)
	}
}

func TestDropRuleScopedByCluster(t *testing.T) {
	virtual(t)
	n := newTestNet(t)
	a, _ := n.AddCluster("a", "s", 2, 1, GigabitEthernet)
	b, _ := n.AddCluster("b", "s", 2, 1, GigabitEthernet)
	echo := func(p []byte) ([]byte, error) { return p, nil }
	inA := n.Dial(a.Hosts()[0], a.Hosts()[1], echo)
	defer inA.Close()
	inB := n.Dial(b.Hosts()[0], b.Hosts()[1], echo)
	defer inB.Close()

	n.InjectFaults(FaultPlan{
		Seed:        11,
		CallTimeout: 300 * time.Microsecond,
		Rules:       []FaultRule{{Cluster: "b", DropProb: 1}},
	})
	defer n.ClearFaults()
	if _, err := call(inB, []byte{1}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("call under p=1 drop rule: %v", err)
	}
	// The rule does not touch cluster a.
	for i := 0; i < 10; i++ {
		if _, err := call(inA, []byte{2}); err != nil {
			t.Fatalf("unmatched call %d: %v", i, err)
		}
	}
}

func TestLatencySpikeDelaysCall(t *testing.T) {
	virtual(t)
	n := newTestNet(t)
	c, _ := n.AddCluster("c", "s", 2, 1, GigabitEthernet)
	echo := func(p []byte) ([]byte, error) { return p, nil }
	conn := n.Dial(c.Hosts()[0], c.Hosts()[1], echo)
	defer conn.Close()

	base, err := call(conn, []byte{1})
	if err != nil {
		t.Fatal(err)
	}

	n.InjectFaults(FaultPlan{
		Seed:  3,
		Rules: []FaultRule{{Cluster: "c", SpikeProb: 1, SpikeDelay: 20 * time.Millisecond}},
	})
	defer n.ClearFaults()
	spiked, err := call(conn, []byte{2})
	if err != nil {
		t.Fatal(err)
	}
	// At probability 1 both the request and the reply leg spike.
	if spiked != base+40*time.Millisecond {
		t.Fatalf("spiked call took %v (base %v), want base + 40ms", spiked, base)
	}
}

// Close fails a call whose handler is still running, at the instant
// Close runs, not when the handler would have answered a second later.
func TestCloseFailsInflightCall(t *testing.T) {
	virtual(t)
	n := newTestNet(t)
	c, _ := n.AddCluster("c", "s", 2, 1, GigabitEthernet)
	started := vclock.NewEvent()
	conn := n.Dial(c.Hosts()[0], c.Hosts()[1], func(p []byte) ([]byte, error) {
		started.Fire(nil, nil)
		hrtime.Sleep(time.Second)
		return p, nil
	})
	var err error
	var failedAt, closedAt int64
	var wg sync.WaitGroup
	wg.Add(2)
	vclock.Go(func() {
		defer wg.Done()
		_, err = conn.Call([]byte{1})
		failedAt = hrtime.Now()
	})
	vclock.Go(func() {
		defer wg.Done()
		started.Wait()
		closedAt = hrtime.Now()
		conn.Close()
	})
	wg.Wait()
	if !errors.Is(err, ErrConnClosed) {
		t.Fatalf("inflight call: %v", err)
	}
	if failedAt != closedAt {
		t.Fatalf("inflight call failed at %v, Close ran at %v", time.Duration(failedAt), time.Duration(closedAt))
	}
}

// The TCP transport is real sockets on the wall clock, where modelled
// delays are off: its subject is real I/O, which the virtual clock does
// not see.
func TestTCPResetConnsForcesRedial(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", func(p []byte) ([]byte, error) { return p, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Call([]byte{1}); err != nil {
		t.Fatalf("pre-reset call: %v", err)
	}
	srv.ResetConns()
	failed := pollUntil(t, 2*time.Second, func() bool {
		_, err := cl.Call([]byte{2})
		return err != nil
	})
	if !failed {
		t.Fatal("calls kept succeeding after reset")
	}
	cl.Close()
	// The server still accepts: a redial works.
	cl2, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if _, err := cl2.Call([]byte{3}); err != nil {
		t.Fatalf("post-redial call: %v", err)
	}
}

func TestFaultPlanSlowSequenceDeterministic(t *testing.T) {
	base := 62 * time.Microsecond
	a := FaultPlan{Seed: 42}.SlowSequence("tin-0", "tin-gw", 8, base, 2000)
	b := FaultPlan{Seed: 42}.SlowSequence("tin-0", "tin-gw", 8, base, 2000)
	lo := time.Duration(float64(base) * 7 * 0.5)
	hi := time.Duration(float64(base) * 7 * 1.5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sequence diverges at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] < lo || a[i] >= hi {
			t.Fatalf("delay %d = %v outside [%v, %v)", i, a[i], lo, hi)
		}
	}
	// A different seed yields a different sequence.
	c := FaultPlan{Seed: 43}.SlowSequence("tin-0", "tin-gw", 8, base, 2000)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed 42 and 43 produced identical slow sequences")
	}
	// Factor <= 1 injects nothing.
	for _, d := range (FaultPlan{Seed: 42}).SlowSequence("tin-0", "tin-gw", 1, base, 10) {
		if d != 0 {
			t.Fatalf("factor 1 injected %v", d)
		}
	}
}

func TestFaultSlowInflatesServiceTime(t *testing.T) {
	virtual(t)
	n := newTestNet(t)
	c, _ := n.AddCluster("c", "s", 2, 1, GigabitEthernet)
	client, server := c.Hosts()[0], c.Hosts()[1]
	echo := func(p []byte) ([]byte, error) { return p, nil }
	conn := n.Dial(client, server, echo)
	defer conn.Close()

	base, err := call(conn, []byte{1})
	if err != nil {
		t.Fatal(err)
	}

	plan := FaultPlan{
		Seed:   3,
		Events: []FaultEvent{{At: 0, Kind: FaultSlow, Host: server.Name(), Factor: 200}},
	}
	n.InjectFaults(plan)
	defer n.ClearFaults()
	if !pollUntil(t, 2*time.Second, func() bool { return n.SlowFactor(server) == 200 }) {
		t.Fatal("slow fault not applied")
	}
	slowed, err := call(conn, []byte{2})
	if err != nil {
		t.Fatalf("call to slow host: %v", err)
	}
	// 199x the 62us base service time jittered by [0.5, 1.5): the first
	// draw of the plan's slow sequence, exactly.
	cost := DefaultCostModel()
	extra := plan.SlowSequence(server.Name(), client.Name(), 200, cost.WakeLatency+cost.RecvCPU+cost.SendCPU, 1)[0]
	if extra < 6*time.Millisecond || slowed != base+extra {
		t.Fatalf("slowed call took %v (base %v), want base + %v (≥ 6ms)", slowed, base, extra)
	}
}

func TestFaultFastClearsSlowdown(t *testing.T) {
	virtual(t)
	n := newTestNet(t)
	c, _ := n.AddCluster("c", "s", 2, 1, GigabitEthernet)
	client, server := c.Hosts()[0], c.Hosts()[1]
	echo := func(p []byte) ([]byte, error) { return p, nil }
	conn := n.Dial(client, server, echo)
	defer conn.Close()
	base, err := call(conn, []byte{0})
	if err != nil {
		t.Fatal(err)
	}

	inj := n.InjectFaults(FaultPlan{
		Seed: 5,
		Events: []FaultEvent{
			{At: 0, Kind: FaultSlow, Cluster: "c", Factor: 50},
			{At: time.Millisecond, Kind: FaultFast, Cluster: "c"},
		},
	})
	defer n.ClearFaults()
	// Wait for both events: before the first applies, the factors read 1
	// too.
	if !pollUntil(t, 2*time.Second, func() bool { return len(inj.Log()) == 2 }) {
		t.Fatalf("events not applied: log = %v", inj.Log())
	}
	if n.SlowFactor(server) != 1 || n.SlowFactor(client) != 1 {
		t.Fatal("fast fault did not clear the cluster slowdown")
	}
	d, err := call(conn, []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	if d != base {
		t.Fatalf("call after FaultFast took %v, %v before the slowdown: not cleared", d, base)
	}
}
