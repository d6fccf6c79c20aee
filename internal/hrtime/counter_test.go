package hrtime

import (
	"errors"
	"math/big"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// anchored is a counterClock whose tick anchor reads base.
func anchored(mult, anchor uint64, base int64) counterClock {
	c := counterClock{mult: mult}
	c.off = c.scaled(anchor) - uint64(base)
	return c
}

// refNs is ns computed exactly: base + ⌊t·mult/2³²⌋ − ⌊anchor·mult/2³²⌋.
func refNs(mult, anchor uint64, base int64, t uint64) int64 {
	at := func(x uint64) *big.Int {
		p := new(big.Int).Mul(new(big.Int).SetUint64(x), new(big.Int).SetUint64(mult))
		return p.Rsh(p, 32)
	}
	d := new(big.Int).Sub(at(t), at(anchor))
	return d.Add(d, big.NewInt(base)).Int64()
}

func TestCounterClockConversion(t *testing.T) {
	// Half a nanosecond a tick: known values.
	const anchor, base = 1_000_000_000_000_000, 5_000_000_000
	c := anchored(1<<31, anchor, base)
	const day = int64(24 * time.Hour)
	for _, tc := range []struct {
		ticks uint64
		want  int64
	}{
		{anchor, base},
		{anchor + 2_000_000_000, base + 1_000_000_000},
		{anchor + 3*2*uint64(day), base + 3*day}, // three days on
		{anchor - 100, base - 50},                // a core reading behind
		{anchor - 2*base, 0},                     // the epoch
		{anchor - 2*base - 2*uint64(day), -day},  // before it
	} {
		if got := c.ns(tc.ticks); got != tc.want {
			t.Errorf("ns(%d) = %d, want %d", tc.ticks, got, tc.want)
		}
	}

	// Realistic multipliers (0.3–1 ns a tick) against the exact
	// arithmetic, for anchors anywhere in the counter's range — near 0,
	// near 2⁶³ and near 2⁶⁴, where the product's low 64 bits wrap — and
	// ticks up to a week either side.
	rng := rand.New(rand.NewSource(1))
	for _, anchor := range []uint64{1 << 20, 1<<63 + 12345, ^uint64(0) - 1<<50, rng.Uint64()} {
		for i := 0; i < 200; i++ {
			mult := uint64(1<<32)/3 + rng.Uint64()%(1<<32)*2/3
			base := rng.Int63n(1 << 50)
			c := anchored(mult, anchor, base)
			week := int64(7 * 24 * time.Hour)
			ticks := anchor + uint64(rng.Int63n(2*week)-week)
			if got, want := c.ns(ticks), refNs(mult, anchor, base, ticks); got != want {
				t.Fatalf("mult %d anchor %d ticks %d: ns = %d, want %d", mult, anchor, ticks, got, want)
			}
			if got := c.ns(anchor); got != base {
				t.Fatalf("mult %d anchor %d: ns(anchor) = %d, want %d", mult, anchor, got, base)
			}
		}
	}
}

// fakeCounter is a 2 GHz counter on the monotonic clock; each read
// jumps it forward by preempt ticks as well, so preempt > 0 widens
// every bracket by that much.
type fakeCounter struct{ preempt, jumps uint64 }

func (f *fakeCounter) ticks() uint64 {
	f.jumps += f.preempt
	return 7_000_000 + 2*uint64(sinceEpoch()) + f.jumps
}

func TestCalibrate(t *testing.T) {
	// A 2 GHz counter: ticks = 2·ns + 1000; 60-tick brackets.
	e := func(ns int64, width uint64) endpoint {
		lo := uint64(2*ns) + 1000 - width/2
		return endpoint{lo: lo, hi: lo + width, ns: ns}
	}
	const t0, t1 = 1_000_000, 1_000_000 + int64(calibrationWindow)
	c, ok := calibrate(e(t0, 60), e(t1, 60))
	if !ok {
		t.Fatal("tight endpoints rejected")
	}
	// The rate is the slow edge: 2 ms over 4 000 060 ticks.
	if want := uint64(int64(calibrationWindow) << 32 / (4_000_060)); c.mult != want {
		t.Fatalf("mult = %d, want %d", c.mult, want)
	}
	if c.errPPB < 30_000 || c.errPPB > 30_001 { // 120 / 3 999 940 ticks
		t.Fatalf("errPPB = %d", c.errPPB)
	}
	// Never ahead of the monotonic clock: not at the anchor, and not a
	// second or a day after it.
	anchor := e(t1, 60).hi
	for _, ns := range []int64{t1 + 30, t1 + 1e9, t1 + int64(24*time.Hour)} {
		got := c.ns(uint64(2*ns) + 1000)
		if got > ns {
			t.Errorf("at %d ns the clock reads %d: ahead", ns, got)
		}
		if lag, bound := ns-got, (ns-t1)*c.errPPB/1e9+30; lag > bound {
			t.Errorf("at %d ns the clock lags %d ns, over its bound %d", ns, lag, bound)
		}
	}
	if got := c.ns(anchor); got != t1 {
		t.Fatalf("ns(anchor) = %d, want %d", got, t1)
	}

	for name, ends := range map[string][2]endpoint{
		"preempted first endpoint":  {e(t0, 2_100), e(t1, 60)}, // 1.05 µs
		"preempted second endpoint": {e(t0, 60), e(t1, 4_000)},
		"window too short":          {e(t0, 60), e(t1-1, 60)},
		"out of order":              {e(t1, 60), e(t0, 60)},
		"overlapping":               {e(t0, 60), {lo: e(t0, 60).hi, hi: e(t0, 60).hi + 60, ns: t1}},
		"counter stopped":           {{lo: 5, hi: 5, ns: t0}, {lo: 5, hi: 5, ns: t1}},
	} {
		if _, ok := calibrate(ends[0], ends[1]); ok {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadEndpointKeepsTightest(t *testing.T) {
	// Bracket i spans widths[i] ticks around monotonic reading i; the
	// first of the two 10-tick ones is kept.
	widths := make([]uint64, endpointTries)
	for i := range widths {
		widths[i] = 5000 - 100*uint64(i)
	}
	widths[5], widths[9] = 10, 10
	var reads int
	ticks := func() uint64 {
		i := reads / 2
		reads++
		if reads%2 == 1 {
			return uint64(i) * 1_000_000
		}
		return uint64(i)*1_000_000 + widths[i]
	}
	mono := func() int64 { return int64(reads / 2) }
	got := readEndpoint(ticks, mono)
	if want := (endpoint{lo: 5_000_000, hi: 5_000_010, ns: 5}); got != want || reads != 2*endpointTries {
		t.Fatalf("kept %+v after %d counter reads, want %+v after %d", got, reads, want, 2*endpointTries)
	}
}

func TestCalibrateCounter(t *testing.T) {
	c := calibrateCounter((&fakeCounter{}).ticks, sinceEpoch)
	if c.mult == 0 {
		t.Fatal("a steady 2 GHz counter did not calibrate")
	}
	if half := uint64(1 << 31); c.mult > half || c.mult < half-half/1000 {
		t.Fatalf("mult = %d, want just under %d", c.mult, half)
	}
	// Preempted on every read: each bracket is 5 µs wide, so every
	// try is rejected and Now stays on time.Since.
	if c := calibrateCounter((&fakeCounter{preempt: 10_000}).ticks, sinceEpoch); c.mult != 0 {
		t.Fatalf("a preempted calibration was kept: %+v", c)
	}
}

func TestUseCounter(t *testing.T) {
	for _, tc := range []struct {
		source string
		err    error
		want   bool
	}{
		{"tsc\n", nil, true},
		{"tsc", nil, true},
		{"kvm-clock\n", nil, false},
		{"hyperv_clocksource_tsc_page\n", nil, false},
		{"hpet\n", nil, false},
		{"", nil, false},
		{"tsc\n", errors.New("permission denied"), false},
		{"", errors.New("no such file or directory"), false},
	} {
		if got := useCounter([]byte(tc.source), tc.err); got != tc.want {
			t.Errorf("useCounter(%q, %v) = %v, want %v", tc.source, tc.err, got, tc.want)
		}
	}
}

// TestNowWithoutCounter holds Now to time.Since(epoch) when no counter
// was calibrated, the path every host without a "tsc" clocksource and
// every platform but linux/amd64 takes.
func TestNowWithoutCounter(t *testing.T) {
	saved := counter
	counter = counterClock{}
	defer func() { counter = saved }()
	for i := 0; i < 1000; i++ {
		a := sinceEpoch()
		n := Now()
		b := sinceEpoch()
		if n < a || n > b {
			t.Fatalf("Now = %d outside the monotonic reads %d..%d around it", n, a, b)
		}
	}
}

func TestNowNeverGoesBackwards(t *testing.T) {
	const reads = 1_000_000
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := Now()
			for i := 0; i < reads; i++ {
				n := Now()
				if n < last {
					t.Errorf("Now went backwards: %d then %d", last, n)
					return
				}
				last = n
			}
		}()
	}
	wg.Wait()
}

// lagSample is how far Now lags the monotonic clock at one instant, as
// read from the tightest of a few brackets: the lag lies in [lo, hi].
type lagSample struct{ lo, hi int64 }

func sampleLag() lagSample {
	var best lagSample
	for i := 0; i < 32; i++ {
		a := Now()
		m := sinceEpoch()
		b := Now()
		if s := (lagSample{lo: m - b, hi: m - a}); i == 0 || s.hi-s.lo < best.hi-best.lo {
			best = s
		}
	}
	return best
}

func TestNowAgreesWithMonotonic(t *testing.T) {
	// slack covers the nanosecond floor of the conversion and a bracket
	// endpoint the CPU read out of order; NTP slewing CLOCK_MONOTONIC
	// after calibration is not covered.
	const slack = 200
	start := sampleLag()
	began := sinceEpoch()
	time.Sleep(150 * time.Millisecond)
	end := sampleLag()
	elapsed := sinceEpoch() - began
	if start.hi < -slack || end.hi < -slack {
		t.Fatalf("Now ran ahead of the monotonic clock: lags %+v then %+v", start, end)
	}
	bound := elapsed*counter.errPPB/1e9 + slack
	if drift := end.lo - start.hi; drift > bound {
		t.Fatalf("over %v Now fell %d ns behind, over its bound %d (errPPB %d)", time.Duration(elapsed), drift, bound, counter.errPPB)
	}
	if drift := end.hi - start.lo; drift < -slack {
		t.Fatalf("over %v Now gained %d ns on the monotonic clock", time.Duration(elapsed), -drift)
	}
}

func TestSleepUnscaledNeverEarly(t *testing.T) {
	for _, d := range []time.Duration{time.Microsecond, 50 * time.Microsecond, time.Millisecond, 3 * time.Millisecond, 7 * time.Millisecond} {
		for i := 0; i < 5; i++ {
			start := time.Now()
			SleepUnscaled(d)
			if el := time.Since(start); el < d {
				t.Fatalf("SleepUnscaled(%v) returned after %v", d, el)
			}
		}
	}
}
