package hrtime

import (
	"bytes"
	"math/bits"
	"time"
)

// The cycle counter. On linux/amd64, when the kernel keeps its own
// monotonic clock on the TSC (its current clocksource is "tsc"), Now
// reads the counter with a bare RDTSC and converts ticks to Stamps
// itself, rather than paying for the vDSO's ordered read; everywhere
// else Now is time.Since(epoch). The kernel picks "tsc" only after it
// has found the counter invariant and synchronised across cores, so
// this package trusts it exactly where the kernel already does.

// counterClock converts counter ticks to Stamps:
//
//	ns(t) = ⌊t·mult / 2³²⌋ − off   (mod 2⁶⁴)
//
// mult is nanoseconds per tick in 32.32 fixed point. The product is
// taken to 128 bits and the offset subtracted modulo 2⁶⁴, so neither a
// tick count far from the anchor nor one behind it (a core whose
// counter reads slightly behind the calibrating core's) overflows or
// wraps: ns is exact to a nanosecond whenever the Stamp fits an int64.
// The zero value (mult 0) means the counter is not in use.
type counterClock struct {
	mult, off uint64
	// errPPB bounds how far the calibrated rate may fall short of the
	// monotonic clock's, in parts per billion of elapsed time. It is
	// never ahead: see calibrate.
	errPPB int64
}

// ns converts a tick count to a Stamp.
func (c *counterClock) ns(ticks uint64) int64 {
	return int64(c.scaled(ticks) - c.off)
}

// scaled is ⌊ticks·mult / 2³²⌋ mod 2⁶⁴: ticks in nanoseconds.
func (c *counterClock) scaled(ticks uint64) uint64 {
	hi, lo := bits.Mul64(ticks, c.mult)
	return hi<<32 | lo>>32
}

// counter is the clock Now converts with; set once, at package init.
var counter counterClock

// useCounter reports whether the kernel's current clocksource, as read
// from sysfs, is the TSC. Any other source (kvm-clock, a hypervisor's
// TSC page) or a read error keeps Now on time.Since.
func useCounter(source []byte, err error) bool {
	return err == nil && string(bytes.TrimSpace(source)) == "tsc"
}

// Calibration fits the counter to the monotonic clock over at least
// calibrationWindow, between two endpoints. An endpoint is one
// monotonic read bracketed by two counter reads; a bracket wider than
// maxBracket means the goroutine was preempted mid-read and the
// calibration is retried, at most calibrationTries times before Now
// stays on time.Since.
const (
	calibrationWindow = 2 * time.Millisecond
	maxBracket        = time.Microsecond
	calibrationTries  = 4
	// endpointTries is how many brackets an endpoint takes, keeping
	// the tightest.
	endpointTries = 16
)

// endpoint is one calibration sample: the monotonic reading ns, taken
// after the counter read lo and before hi.
type endpoint struct {
	lo, hi uint64
	ns     int64
}

// readEndpoint brackets endpointTries monotonic reads between counter
// reads and returns the tightest bracket.
func readEndpoint(ticks func() uint64, mono func() int64) endpoint {
	var best endpoint
	for i := 0; i < endpointTries; i++ {
		lo := ticks()
		ns := mono()
		hi := ticks()
		if i == 0 || hi-lo < best.hi-best.lo {
			best = endpoint{lo: lo, hi: hi, ns: ns}
		}
	}
	return best
}

// calibrate fits a counterClock to two endpoints. The rate is the
// lowest the brackets allow — the elapsed nanoseconds over the widest
// tick span, e0.lo to e1.hi, rounded down — and the anchor is e1.hi
// at e1.ns. The monotonic read happened before e1.hi, so at the anchor
// the clock reads no later than real time, and at the low rate it can
// only fall behind from there, never run ahead: a wait on Now (as in
// SleepUnscaled) never ends early. It fails on endpoints out of order,
// less than calibrationWindow apart, or with a bracket wider than
// maxBracket.
func calibrate(e0, e1 endpoint) (counterClock, bool) {
	elapsed := e1.ns - e0.ns
	if elapsed < int64(calibrationWindow) || e0.hi < e0.lo || e1.hi < e1.lo || e1.lo <= e0.hi {
		return counterClock{}, false
	}
	span := e1.hi - e0.lo
	hi, lo := uint64(elapsed)>>32, uint64(elapsed)<<32
	if hi >= span {
		return counterClock{}, false // over 2³² ns per tick
	}
	mult, _ := bits.Div64(hi, lo, span)
	if mult == 0 {
		return counterClock{}, false // under 2⁻³² ns per tick
	}
	c := counterClock{mult: mult}
	w0, w1 := e0.hi-e0.lo, e1.hi-e1.lo
	if c.scaled(w0) > uint64(maxBracket) || c.scaled(w1) > uint64(maxBracket) {
		return counterClock{}, false
	}
	c.off = c.scaled(e1.hi) - uint64(e1.ns)
	// The true span is at least span − w0 − w1, so the rate falls
	// short by at most (w0 + w1) / (span − w0 − w1).
	c.errPPB = int64((w0+w1)*1e9/(span-w0-w1)) + 1
	return c, true
}

// calibrateCounter calibrates ticks against mono, retrying a preempted
// calibration; the zero counterClock means it never succeeded.
func calibrateCounter(ticks func() uint64, mono func() int64) counterClock {
	for i := 0; i < calibrationTries; i++ {
		e0 := readEndpoint(ticks, mono)
		time.Sleep(calibrationWindow)
		if c, ok := calibrate(e0, readEndpoint(ticks, mono)); ok {
			return c
		}
	}
	return counterClock{}
}
