package vnet

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"eventspace/internal/hrtime"
	"eventspace/internal/vclock"
)

// virtual runs the rest of the test on the discrete-event clock, so
// every modelled delay takes exactly its modelled value and no real
// time. The test goroutine is a driver: it waits with SleepOutside and
// runs model code through inModel or vclock.Go.
func virtual(t *testing.T) {
	t.Helper()
	vclock.Enable(0, vclock.DefaultSeed)
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

func newTestNet(t *testing.T) *Network {
	t.Helper()
	return NewNetwork(FastEthernet, DefaultCostModel())
}

func TestLinkDelay(t *testing.T) {
	l := LinkSpec{Latency: 100 * time.Microsecond, Bandwidth: 1e6}
	if d := l.Delay(0); d != 100*time.Microsecond {
		t.Fatalf("zero-size delay = %v", d)
	}
	// 1000 bytes at 1 MB/s = 1 ms serialization.
	if d := l.Delay(1000); d != 100*time.Microsecond+time.Millisecond {
		t.Fatalf("1000B delay = %v", d)
	}
	inf := LinkSpec{Latency: time.Millisecond}
	if d := inf.Delay(1 << 20); d != time.Millisecond {
		t.Fatalf("infinite-bandwidth delay = %v", d)
	}
}

func TestQuickLinkDelayMonotonic(t *testing.T) {
	f := func(lat uint16, bwRaw uint32, a, b uint16) bool {
		l := LinkSpec{
			Latency:   time.Duration(lat) * time.Microsecond,
			Bandwidth: float64(bwRaw%1000000) + 1,
		}
		small, large := int(a), int(b)
		if small > large {
			small, large = large, small
		}
		return l.Delay(small) <= l.Delay(large) && l.Delay(small) >= l.Latency
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddClusterCreatesHostsAndGateway(t *testing.T) {
	n := newTestNet(t)
	c, err := n.AddCluster("tin", "tromso", 4, 1, GigabitEthernet)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Hosts()) != 4 {
		t.Fatalf("hosts = %d", len(c.Hosts()))
	}
	if c.Gateway() == nil || c.Gateway().Name() != "tin-gw" {
		t.Fatalf("gateway = %v", c.Gateway())
	}
	if c.Site() != "tromso" || c.Name() != "tin" {
		t.Fatalf("cluster meta = %q %q", c.Name(), c.Site())
	}
	h := n.hosts["tin-2"]
	if h == nil || h.Cluster() != c {
		t.Fatal("host not linked to cluster")
	}
	if h.CPUs() != 1 {
		t.Fatalf("cpus = %d", h.CPUs())
	}
	if got, err := n.ClusterByName("tin"); err != nil || got != c {
		t.Fatalf("ClusterByName = %v, %v", got, err)
	}
	if len(n.clusters) != 1 {
		t.Fatalf("clusters = %d", len(n.clusters))
	}
}

func TestAddClusterRejectsDuplicatesAndBadArgs(t *testing.T) {
	n := newTestNet(t)
	if _, err := n.AddCluster("c", "s", 0, 1, GigabitEthernet); err == nil {
		t.Fatal("nhosts 0 accepted")
	}
	if _, err := n.AddCluster("c", "s", 2, 0, GigabitEthernet); err == nil {
		t.Fatal("cpus 0 accepted")
	}
	if _, err := n.AddCluster("c", "s", 2, 1, GigabitEthernet); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddCluster("c", "s", 2, 1, GigabitEthernet); err == nil {
		t.Fatal("duplicate cluster accepted")
	}
	if _, err := n.AddStandaloneHost("c-0", 1); err == nil {
		t.Fatal("duplicate host name accepted")
	}
	if _, err := n.ClusterByName("nope"); err == nil {
		t.Fatal("missing cluster lookup succeeded")
	}
}

func TestStandaloneHost(t *testing.T) {
	n := newTestNet(t)
	h, err := n.AddStandaloneHost("frontend", 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.Cluster() != nil {
		t.Fatal("standalone host has a cluster")
	}
	if h.Registry == nil {
		t.Fatal("no registry")
	}
}

func TestOneWayDelayTopology(t *testing.T) {
	n := newTestNet(t)
	c1, _ := n.AddCluster("a", "s1", 2, 1, GigabitEthernet)
	c2, _ := n.AddCluster("b", "s1", 2, 1, GigabitEthernet)
	fe, _ := n.AddStandaloneHost("fe", 1)
	a0, a1 := c1.Hosts()[0], c1.Hosts()[1]
	b0 := c2.Hosts()[0]

	if d := n.OneWayDelay(a0, a0, 8); d != n.cost.LocalLatency {
		t.Fatalf("same-host delay = %v", d)
	}
	if d := n.OneWayDelay(a0, a1, 8); d != GigabitEthernet.Delay(8) {
		t.Fatalf("intra delay = %v", d)
	}
	// a0 -> b0: intra + inter + intra.
	want := 2*GigabitEthernet.Delay(8) + FastEthernet.Delay(8)
	if d := n.OneWayDelay(a0, b0, 8); d != want {
		t.Fatalf("cross delay = %v, want %v", d, want)
	}
	// Gateway to remote compute host skips the first intra hop.
	want = GigabitEthernet.Delay(8) + FastEthernet.Delay(8)
	if d := n.OneWayDelay(c1.Gateway(), b0, 8); d != want {
		t.Fatalf("gw-to-host delay = %v, want %v", d, want)
	}
	// Standalone front-end: only remote intra hop + inter segment.
	want = GigabitEthernet.Delay(8) + FastEthernet.Delay(8)
	if d := n.OneWayDelay(fe, a0, 8); d != want {
		t.Fatalf("fe-to-host delay = %v, want %v", d, want)
	}
}

func TestWANDelayUsedAcrossSites(t *testing.T) {
	n := newTestNet(t)
	c1, _ := n.AddCluster("a", "tromso", 1, 1, GigabitEthernet)
	c2, _ := n.AddCluster("b", "aalborg", 1, 1, GigabitEthernet)
	c3, _ := n.AddCluster("c", "tromso", 1, 1, GigabitEthernet)
	wan := 18 * time.Millisecond
	n.SetWANDelay(func(from, to string, size int) time.Duration {
		if from == to {
			t.Errorf("WAN delay called for same site %q", from)
		}
		return wan
	})
	a, b, c := c1.Hosts()[0], c2.Hosts()[0], c3.Hosts()[0]
	want := 2*GigabitEthernet.Delay(8) + wan
	if d := n.OneWayDelay(a, b, 8); d != want {
		t.Fatalf("cross-site delay = %v, want %v", d, want)
	}
	// Same site still uses the LAN inter-cluster link.
	want = 2*GigabitEthernet.Delay(8) + FastEthernet.Delay(8)
	if d := n.OneWayDelay(a, c, 8); d != want {
		t.Fatalf("same-site delay = %v, want %v", d, want)
	}
}

// occupyAll runs k concurrent occupations of d on h and returns the
// modelled time until the last one ends.
func occupyAll(h *Host, k int, d time.Duration) time.Duration {
	start := hrtime.Now()
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		vclock.Go(func() {
			defer wg.Done()
			h.Occupy(d)
		})
	}
	wg.Wait()
	return time.Duration(hrtime.Since(start))
}

func TestHostOccupySerializesOnSlots(t *testing.T) {
	virtual(t)
	n := newTestNet(t)
	h, _ := n.AddStandaloneHost("h", 1)
	const d = 20 * time.Millisecond
	if el := occupyAll(h, 3, d); el != 3*d {
		t.Fatalf("3 occupations of %v on 1 CPU took %v, want %v: not serialized", d, el, 3*d)
	}
	if bt := time.Duration(h.busyNS.Load()); bt != 3*d {
		t.Fatalf("busy time = %v, want %v", bt, 3*d)
	}
}

func TestHostOccupyParallelWithTwoCPUs(t *testing.T) {
	virtual(t)
	n := newTestNet(t)
	h, _ := n.AddStandaloneHost("h", 2)
	const d = 30 * time.Millisecond
	if el := occupyAll(h, 2, d); el != d {
		t.Fatalf("2 occupations of %v on 2 CPUs took %v: not parallel", d, el)
	}
}

// On the wall clock a modelled occupation costs no time and charges
// nothing: busy time counts only what the host actually waited.
func TestHostOccupyOnWallClockChargesNothing(t *testing.T) {
	n := newTestNet(t)
	h, _ := n.AddStandaloneHost("h", 1)
	h.Occupy(time.Hour)
	if bt := h.busyNS.Load(); bt != 0 {
		t.Fatalf("busy time = %v on the wall clock, want 0", time.Duration(bt))
	}
}

func TestConnCallRoundTrip(t *testing.T) {
	virtual(t)
	n := newTestNet(t)
	c, _ := n.AddCluster("c", "s", 2, 1, GigabitEthernet)
	a, b := c.Hosts()[0], c.Hosts()[1]
	conn := n.Dial(a, b, func(p []byte) ([]byte, error) {
		return append([]byte("re:"), p...), nil
	})
	defer conn.Close()
	var resp []byte
	var err error
	inModel(func() { resp, err = conn.Call([]byte("hello")) })
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "re:hello" {
		t.Fatalf("resp = %q", resp)
	}
	if n.Messages() < 2 {
		t.Fatalf("Messages = %d, want >= 2", n.Messages())
	}
}

func TestConnHandlerError(t *testing.T) {
	virtual(t)
	n := newTestNet(t)
	c, _ := n.AddCluster("c", "s", 2, 1, GigabitEthernet)
	conn := n.Dial(c.Hosts()[0], c.Hosts()[1], func(p []byte) ([]byte, error) {
		return nil, errors.New("boom")
	})
	defer conn.Close()
	var err error
	inModel(func() { _, err = conn.Call(nil) })
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
}

func TestConnSerializesRequests(t *testing.T) {
	virtual(t)
	n := newTestNet(t)
	c, _ := n.AddCluster("c", "s", 2, 1, GigabitEthernet)
	var mu sync.Mutex
	inHandler := 0
	maxIn := 0
	conn := n.Dial(c.Hosts()[0], c.Hosts()[1], func(p []byte) ([]byte, error) {
		mu.Lock()
		inHandler++
		if inHandler > maxIn {
			maxIn = inHandler
		}
		mu.Unlock()
		hrtime.Sleep(time.Millisecond)
		mu.Lock()
		inHandler--
		mu.Unlock()
		return p, nil
	})
	defer conn.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		vclock.Go(func() {
			defer wg.Done()
			if _, err := conn.Call([]byte{1}); err != nil {
				t.Errorf("Call: %v", err)
			}
		})
	}
	wg.Wait()
	if maxIn != 1 {
		t.Fatalf("handler concurrency = %d, want 1 (one CT per connection)", maxIn)
	}
}

// Close fails every caller at the instant it runs: the one queued
// behind a blocked handler and the one inside it. The handler stays
// blocked until after Close, so neither caller could have been answered.
func TestConnCloseUnblocksCallers(t *testing.T) {
	virtual(t)
	n := newTestNet(t)
	c, _ := n.AddCluster("c", "s", 2, 1, GigabitEthernet)
	block := vclock.NewEvent()
	conn := n.Dial(c.Hosts()[0], c.Hosts()[1], func(p []byte) ([]byte, error) {
		block.Wait()
		return p, nil
	})
	type result struct {
		err error
		at  int64
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		vclock.Go(func() {
			_, err := conn.Call(nil)
			results <- result{err, hrtime.Now()}
		})
	}
	hrtime.SleepOutside(10 * time.Millisecond)
	closedAt := hrtime.Now()
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		r := <-results
		if !errors.Is(r.err, ErrConnClosed) {
			t.Fatalf("err = %v", r.err)
		}
		if r.at != closedAt {
			t.Fatalf("caller failed at %v, Close ran at %v", time.Duration(r.at), time.Duration(closedAt))
		}
	}
	block.Fire(nil, nil)
	if err := conn.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	var err error
	inModel(func() { _, err = conn.Call(nil) })
	if !errors.Is(err, ErrConnClosed) {
		t.Fatalf("call after close: %v", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("ab"), 5000)}
	for _, p := range payloads {
		if err := writeFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range payloads {
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame = %q, want %q", got, p)
		}
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, make([]byte, maxFrame+1)); err == nil {
		t.Fatal("oversize write accepted")
	}
	var hdr [4]byte
	hdr[3] = 0xff // huge length prefix
	if _, err := readFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("oversize read accepted")
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", func(p []byte) ([]byte, error) {
		if string(p) == "fail" {
			return nil, errors.New("nope")
		}
		return append([]byte("ok:"), p...), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 10; i++ {
		msg := fmt.Sprintf("m%d", i)
		resp, err := cl.Call([]byte(msg))
		if err != nil {
			t.Fatal(err)
		}
		if string(resp) != "ok:"+msg {
			t.Fatalf("resp = %q", resp)
		}
	}
	if _, err := cl.Call([]byte("fail")); err == nil {
		t.Fatal("remote error not propagated")
	}
}

func TestTCPTransportConcurrentClients(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", func(p []byte) ([]byte, error) {
		return p, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := DialTCP(srv.Addr())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer cl.Close()
			for j := 0; j < 50; j++ {
				want := []byte{byte(i), byte(j)}
				got, err := cl.Call(want)
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("call: %v %v", got, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestTCPServerCloseIdempotent(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", func(p []byte) ([]byte, error) { return p, nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}
