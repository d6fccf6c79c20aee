// Package hrtime provides the high-resolution monotonic timestamps used by
// event collectors, the calibrated busy-work primitive used to model
// application computation, and the global virtual-time scale applied to
// modelled network delays.
//
// The paper's event collectors record two timestamps per communication
// operation using the host's cycle counter. Go's time package exposes a
// monotonic clock with nanosecond resolution which serves the same purpose;
// Stamp values are nanoseconds since an arbitrary process-local epoch.
package hrtime

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"eventspace/internal/vclock"
)

// Stamp is a monotonic timestamp in nanoseconds since the process epoch.
type Stamp = int64

var epoch = time.Now()

// Now returns the current monotonic timestamp: virtual nanoseconds when
// the discrete-event clock is active, real monotonic nanoseconds
// otherwise.
func Now() Stamp {
	if vclock.Active() {
		return vclock.Now()
	}
	return int64(time.Since(epoch))
}

// Since returns the elapsed nanoseconds since s.
func Since(s Stamp) int64 {
	return Now() - s
}

// scale is the global virtual-time scale in parts-per-1024 applied by
// ScaleDelay. 1024 means real time.
var scale atomic.Int64

func init() { scale.Store(1024) }

// SetScale sets the global delay scale factor. A factor of 1.0 models
// delays at their configured value; 0.1 shrinks all modelled network
// delays tenfold so the test suite runs quickly while preserving ratios.
// Factors are clamped to [0, 16].
func SetScale(f float64) {
	if f < 0 {
		f = 0
	}
	if f > 16 {
		f = 16
	}
	scale.Store(int64(f * 1024))
}

// Scale reports the current global delay scale factor.
func Scale() float64 {
	return float64(scale.Load()) / 1024
}

// ScaleDelay applies the global scale factor to a modelled delay.
func ScaleDelay(d time.Duration) time.Duration {
	return time.Duration(int64(d) * scale.Load() / 1024)
}

// sleepFloor is the coarse-timer granularity margin: time.Sleep on the
// target environments can overshoot by more than a millisecond, so waits
// within this distance of their deadline are yield-spun instead.
const sleepFloor = 2 * time.Millisecond

// Sleep waits for the scaled duration with microsecond-level precision.
// Sub-microsecond scaled delays are skipped entirely (below any useful
// resolution). Short delays yield-spin: on a machine with a coarse timer
// tick, time.Sleep overshoots by over a millisecond, which would destroy
// the microsecond-scale delay model; yielding keeps other goroutines
// runnable while this one polls the clock. Long delays sleep coarsely to
// within the floor and spin the remainder.
func Sleep(d time.Duration) {
	sd := ScaleDelay(d)
	if vclock.Active() {
		vclock.Sleep(sd)
		return
	}
	if sd < time.Microsecond {
		return
	}
	SleepUnscaled(sd)
}

// SleepOutside waits d of model time from a goroutine that is not a
// registered model participant — a driver loop polling monitor state
// between phases. Under the virtual clock it parks on an outside timer
// that never touches the clock's runnable accounting (see
// vclock.SleepOutside); with the clock disabled it is an ordinary scaled
// sleep.
func SleepOutside(d time.Duration) {
	sd := ScaleDelay(d)
	if vclock.Active() {
		vclock.SleepOutside(sd)
		return
	}
	if sd < time.Microsecond {
		return
	}
	SleepUnscaled(sd)
}

// SleepUnscaled is Sleep without the scale factor: a precise wait for the
// given duration (virtual when the discrete-event clock is active).
func SleepUnscaled(d time.Duration) {
	if vclock.Active() {
		vclock.Sleep(d)
		return
	}
	deadline := Now() + int64(d)
	if d > 2*sleepFloor {
		time.Sleep(d - sleepFloor)
	}
	for Now() < deadline {
		runtime.Gosched()
	}
}

// spinCalibration holds the measured iterations-per-microsecond of the
// busy-work loop, computed once on first use.
var spinCalibration struct {
	once      sync.Once
	perMicro  float64
	minirants uint64 // defeat dead-code elimination
}

// spin executes n dependent integer operations.
func spin(n int) uint64 {
	var acc uint64 = 0x9e3779b97f4a7c15
	for i := 0; i < n; i++ {
		acc ^= acc << 13
		acc ^= acc >> 7
		acc ^= acc << 17
	}
	return acc
}

// calibrate measures the spin rate as the fastest of several short
// probes. Interference (a descheduled goroutine, a busy sibling core)
// can only slow a probe down, so the fastest one is the closest to the
// undisturbed rate; a single long probe that gets descheduled
// under-measures perMicro and every later Work call burns too little.
func calibrate() {
	const (
		probes = 8
		probe  = 1 << 17
	)
	best := time.Duration(0)
	for i := 0; i < probes; i++ {
		start := time.Now()
		spinCalibration.minirants += spin(probe)
		elapsed := time.Since(start)
		if elapsed <= 0 {
			elapsed = time.Nanosecond
		}
		if best == 0 || elapsed < best {
			best = elapsed
		}
	}
	spinCalibration.perMicro = float64(probe) / (float64(best) / float64(time.Microsecond))
	if spinCalibration.perMicro < 1 {
		spinCalibration.perMicro = 1
	}
}

// Work busy-spins for approximately d of CPU time. Unlike Sleep it consumes
// a processor, so it must be called while holding a vnet CPU slot; it is the
// building block for modelled application computation whose duration must
// not depend on trace content. d is not scaled by the virtual-time factor:
// computation is real work in this reproduction.
func Work(d time.Duration) uint64 {
	if d <= 0 {
		return 0
	}
	spinCalibration.once.Do(calibrate)
	n := int(spinCalibration.perMicro * float64(d) / float64(time.Microsecond))
	if n < 1 {
		n = 1
	}
	return spin(n)
}

// WorkIterations converts a duration to the spin iteration count that Work
// would use, for callers that want to split work into slices.
func WorkIterations(d time.Duration) int {
	spinCalibration.once.Do(calibrate)
	n := int(spinCalibration.perMicro * float64(d) / float64(time.Microsecond))
	if n < 1 {
		n = 1
	}
	return n
}

// WorkN runs n spin iterations (see WorkIterations).
func WorkN(n int) uint64 { return spin(n) }
