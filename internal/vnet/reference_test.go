package vnet

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"eventspace/internal/hrtime"
	"eventspace/internal/vclock"
	"eventspace/internal/wantrace"
)

// The slow reference: the call path as it ran before vclock.Path, one
// goroutine step per modelled delay, CPU slot claim and release. The
// path-built Occupy, transit, Call and serve must schedule exactly as
// these do (TestPathsMatchReference).

func refOccupy(h *Host, d time.Duration) {
	h.slots.Acquire()
	hrtime.Sleep(d)
	h.slots.Release()
	if vclock.Active() {
		h.busyNS.Add(int64(d))
	}
}

func (n *Network) refTransit(a, b *Host, size int) {
	n.msgs.Add(1)
	if a == b {
		hrtime.Sleep(n.cost.LocalLatency)
		return
	}
	ca, cb := a.cluster, b.cluster
	if ca != nil && ca == cb {
		hrtime.Sleep(ca.intra.Delay(size))
		return
	}
	if ca != nil && a != ca.gateway {
		hrtime.Sleep(ca.intra.Delay(size))
		refOccupy(ca.gateway, n.cost.GatewayCPU)
	}
	hrtime.Sleep(n.interSegmentDelay(ca, cb, size))
	if cb != nil && b != cb.gateway {
		refOccupy(cb.gateway, n.cost.GatewayCPU)
		hrtime.Sleep(cb.intra.Delay(size))
	}
}

func (n *Network) refDial(client, server *Host, handler Handler) *Conn {
	c := n.dial(client, server)
	vclock.Go(func() { c.refServe(handler) })
	return c
}

func (c *Conn) refServe(handler Handler) {
	for {
		req, ok := c.reqs.Pop()
		if !ok {
			return
		}
		c.inflightMu.Lock()
		c.inflight[req] = struct{}{}
		c.inflightMu.Unlock()
		hrtime.Sleep(c.net.cost.WakeLatency)
		refOccupy(c.server, c.net.cost.RecvCPU)
		if inj := c.net.injector(); inj != nil {
			if extra := inj.slowServe(c.server, c.client); extra > 0 {
				refOccupy(c.server, extra)
			}
		}
		payload, err := handler(req.payload)
		refOccupy(c.server, c.net.cost.SendCPU)
		c.inflightMu.Lock()
		delete(c.inflight, req)
		c.inflightMu.Unlock()
		req.reply.Fire(payload, err)
	}
}

func (c *Conn) refCall(payload []byte) ([]byte, error) {
	if c.reqs.Closed() {
		return nil, ErrConnClosed
	}
	var cf callFaults
	if inj := c.net.injector(); inj != nil {
		if inj.hostDown(c.server) || inj.hostDown(c.client) {
			hrtime.Sleep(c.net.OneWayDelay(c.client, c.server, 0))
			return nil, ErrHostDown
		}
		if inj.cut(c.client, c.server) {
			hrtime.Sleep(inj.plan.timeout())
			return nil, ErrTimeout
		}
		cf = inj.planCall(c.client, c.server)
	}
	refOccupy(c.client, c.net.cost.SendCPU)
	if cf.spikeReq {
		hrtime.Sleep(cf.spikeDelay)
	}
	if cf.dropReq {
		hrtime.Sleep(cf.timeout)
		return nil, ErrTimeout
	}
	c.net.refTransit(c.client, c.server, len(payload))
	req := &roundTrip{payload: payload}
	if err := c.reqs.Push(req); err != nil {
		return nil, ErrConnClosed
	}
	if cf.dropRep {
		hrtime.Sleep(cf.timeout)
		return nil, ErrTimeout
	}
	resp, err := req.reply.Wait()
	if err != nil {
		return nil, err
	}
	if cf.spikeRep {
		hrtime.Sleep(cf.spikeDelay)
	}
	c.net.refTransit(c.server, c.client, len(resp))
	hrtime.Sleep(c.net.cost.WakeLatency)
	refOccupy(c.client, c.net.cost.RecvCPU)
	return resp, nil
}

// callImpl is one implementation of the call path: how to dial, call
// and compute.
type callImpl struct {
	dial   func(n *Network, client, server *Host, h Handler) *Conn
	call   func(c *Conn, p []byte) ([]byte, error)
	occupy func(h *Host, d time.Duration)
}

var (
	pathImpl = callImpl{
		dial:   (*Network).Dial,
		call:   (*Conn).Call,
		occupy: (*Host).Occupy,
	}
	refImpl = callImpl{
		dial:   (*Network).refDial,
		call:   (*Conn).refCall,
		occupy: refOccupy,
	}
)

// contendedTrace runs one contended scenario through impl under the
// clock seed and returns its event trace, one line per event: virtual
// time, the spawn sequence of the goroutine it happened on (0: the
// driver), and the event. Several clients share each client host's one
// CPU; traffic crosses the LAN gateways, the WAN emulator and a
// standalone host; the fault plan drops and spikes legs, slows one
// server, and crashes a host in the middle of calls; a goroutine closes
// a connection mid-call; a handler's request is closed while its
// handler occupies the server's CPU; two callers on one connection
// start together every 150 µs, so their pushes land at one instant and
// the tie-break orders them; and drivers sleeping outside the model
// wake at every multiple of SendCPU (7 µs) of the first 280 µs, exactly
// as the send legs of the calls queued on a client host's one CPU end.
//
// The drivers only wake: their timers take part in the model (they are
// due first at their instants and keep the sleeps that span them off the
// fast path), but what a driver does once woken stays out of the
// compared trace.
func contendedTrace(t *testing.T, impl callImpl, seed uint64) string {
	t.Helper()
	vclock.Enable(0, seed)
	defer vclock.Disable()
	const ticks = 40

	var mu sync.Mutex
	var lines []string
	trace := func(format string, args ...any) {
		line := fmt.Sprintf("%d %d ", vclock.Now(), vclock.Seq()) + fmt.Sprintf(format, args...)
		mu.Lock()
		lines = append(lines, line)
		mu.Unlock()
	}

	n := NewNetwork(FastEthernet, DefaultCostModel())
	emu := wantrace.NewEmulator(wantrace.Generate(5, 256))
	n.SetWANDelay(emu.Delay)
	a, _ := n.AddCluster("a", wantrace.Tromso, 2, 1, GigabitEthernet)
	b, _ := n.AddCluster("b", wantrace.Tromso, 2, 1, GigabitEthernet)
	w, _ := n.AddCluster("w", wantrace.Odense, 2, 1, GigabitEthernet)
	fe, _ := n.AddStandaloneHost("fe", 2)
	tie, _ := n.AddStandaloneHost("tie", 2)
	srv, _ := n.AddStandaloneHost("srv", 1)
	plan := FaultPlan{
		Seed:        3,
		CallTimeout: 400 * time.Microsecond,
		Events: []FaultEvent{
			{At: time.Millisecond, Kind: FaultSlow, Host: "b-0", Factor: 3},
			{At: 2 * time.Millisecond, Kind: FaultCrash, Host: "w-1"},
			{At: 4 * time.Millisecond, Kind: FaultRestart, Host: "w-1"},
		},
		Rules: []FaultRule{{DropProb: 0.08, SpikeProb: 0.15, SpikeDelay: 200 * time.Microsecond}},
	}
	var inj *Injector

	handler := func(server *Host, work time.Duration) Handler {
		return func(p []byte) ([]byte, error) {
			trace("serve %s %d", server.name, len(p))
			if work > 0 {
				impl.occupy(server, work)
			}
			return p[:len(p)/2+1], nil
		}
	}
	routes := []struct {
		from, to *Host
		work     time.Duration
	}{
		{a.hosts[0], b.hosts[0], 5 * time.Microsecond},
		{a.hosts[0], b.hosts[0], 0},
		{a.hosts[0], w.hosts[0], 0},
		{a.hosts[1], w.hosts[1], 3 * time.Microsecond},
		{fe, a.hosts[1], 0},
		{b.hosts[1], a.hosts[0], 2 * time.Microsecond},
		{a.hosts[0], a.hosts[1], 0},
		{a.hosts[1], a.hosts[1], 0},
	}
	conns := make([]*Conn, len(routes))
	var connsMu sync.Mutex
	wg := vclock.NewWaitGroup()
	start := func() {
		inj = n.InjectFaults(plan)
		for i, r := range routes {
			conns[i] = impl.dial(n, r.from, r.to, handler(r.to, r.work))
			wg.Add(1)
			vclock.Go(func() {
				defer wg.Done()
				for k := 0; k < 30; k++ {
					connsMu.Lock()
					conn := conns[i]
					connsMu.Unlock()
					resp, err := impl.call(conn, make([]byte, 1+(k*37+i*101)%600))
					trace("call %d.%d -> %d %v", i, k, len(resp), err)
					if errors.Is(err, ErrConnClosed) {
						conn.Close()
						connsMu.Lock()
						conns[i] = impl.dial(n, r.from, r.to, handler(r.to, r.work))
						connsMu.Unlock()
					}
				}
			})
		}
		// Close a busy connection in the middle of its calls.
		wg.Add(1)
		vclock.Go(func() {
			defer wg.Done()
			hrtime.Sleep(1500 * time.Microsecond)
			connsMu.Lock()
			conn := conns[0]
			connsMu.Unlock()
			trace("close 0")
			conn.Close()
		})
		// Close a connection 20 µs into its handler's 50 µs of CPU, on
		// every request of odd size: the call being served fails then.
		var busy *Conn
		var busyHandler Handler
		busyHandler = func(p []byte) ([]byte, error) {
			trace("serve busy %d", len(p))
			if len(p)%2 == 1 {
				connsMu.Lock()
				conn := busy
				connsMu.Unlock()
				vclock.Go(func() {
					hrtime.Sleep(20 * time.Microsecond)
					trace("close busy")
					conn.Close()
				})
			}
			impl.occupy(srv, 50*time.Microsecond)
			return p, nil
		}
		busy = impl.dial(n, tie, srv, busyHandler)
		wg.Add(1)
		vclock.Go(func() {
			defer wg.Done()
			for k := 0; k < 12; k++ {
				connsMu.Lock()
				conn := busy
				connsMu.Unlock()
				resp, err := impl.call(conn, make([]byte, 40+k))
				trace("busy call %d -> %d %v", k, len(resp), err)
				if errors.Is(err, ErrConnClosed) {
					connsMu.Lock()
					busy = impl.dial(n, tie, srv, busyHandler)
					connsMu.Unlock()
				}
			}
			connsMu.Lock()
			conns = append(conns, busy)
			connsMu.Unlock()
		})
		// Two callers on one connection, each starting its calls at the
		// same instants.
		twin := impl.dial(n, tie, tie, handler(tie, 0))
		for j := 0; j < 2; j++ {
			wg.Add(1)
			vclock.Go(func() {
				defer wg.Done()
				for k := 1; k <= 20; k++ {
					if d := int64(k)*150_000 - vclock.Now(); d > 0 {
						hrtime.Sleep(time.Duration(d))
					}
					resp, err := impl.call(twin, make([]byte, 10+j))
					trace("twin %d.%d -> %d %v", j, k, len(resp), err)
				}
			})
		}
		connsMu.Lock()
		conns = append(conns, twin)
		connsMu.Unlock()
	}
	// The gate holds the clock at 0 until every driver's timer is set,
	// then starts the scenario. It is the model's only goroutine until
	// then, and the fault injector's sleep starts with the scenario, so
	// every pending timer is a driver's: the scenario starts with all of
	// them or not at all.
	wg.Add(1)
	vclock.Go(func() {
		defer wg.Done()
		timers := 0
		for timers < ticks {
			runtime.Gosched()
			_, _, _, timers = vclock.Stats()
		}
		if timers != ticks {
			t.Errorf("the scenario starts with %d timers pending, want the %d drivers' alone", timers, ticks)
		}
		start()
	})
	var drivers sync.WaitGroup
	for k := 1; k <= ticks; k++ {
		drivers.Add(1)
		go func() {
			defer drivers.Done()
			hrtime.SleepOutside(time.Duration(k) * n.cost.SendCPU)
		}()
	}
	drivers.Wait()
	wg.Wait()
	connsMu.Lock()
	for _, c := range conns {
		c.Close()
	}
	connsMu.Unlock()
	if err := vclock.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, r := range inj.Log() {
		trace("fault %v", r)
	}
	for _, h := range []*Host{a.hosts[0], a.hosts[1], a.gateway, b.hosts[0], b.hosts[1], b.gateway, w.hosts[0], w.hosts[1], w.gateway, fe, tie, srv} {
		trace("busy %s %d", h.name, h.busyNS.Load())
	}
	trace("messages %d", n.Messages())
	return strings.Join(lines, "\n")
}

// TestPathsMatchReference holds the path-built call path to the slow
// reference: under seeds 0, 1 and 2 the contended scenario's full event
// trace — virtual time, goroutine, event — matches byte for byte, while
// the clock ran path steps in its hand-offs and switched goroutines
// fewer times.
func TestPathsMatchReference(t *testing.T) {
	for _, seed := range []uint64{0, 1, 2} {
		before := vclock.Counters()
		ref := contendedTrace(t, refImpl, seed)
		mid := vclock.Counters()
		got := contendedTrace(t, pathImpl, seed)
		after := vclock.Counters()
		if got != ref {
			gl, rl := strings.Split(got, "\n"), strings.Split(ref, "\n")
			for i := range min(len(gl), len(rl)) {
				if gl[i] != rl[i] {
					t.Fatalf("seed %d: traces differ at line %d:\n paths:     %s\n reference: %s", seed, i+1, gl[i], rl[i])
				}
			}
			t.Fatalf("seed %d: traces differ in length: paths %d lines, reference %d", seed, len(gl), len(rl))
		}
		if strings.Count(ref, "\n") < 300 {
			t.Fatalf("seed %d: scenario too small: %d events", seed, strings.Count(ref, "\n")+1)
		}
		refSwitches, pathSwitches := mid.Switches-before.Switches, after.Switches-mid.Switches
		if after.PathSteps == mid.PathSteps || pathSwitches >= refSwitches {
			t.Fatalf("seed %d: paths ran %d steps in hand-offs and %d switches against the reference's %d",
				seed, after.PathSteps-mid.PathSteps, pathSwitches, refSwitches)
		}
	}
}
