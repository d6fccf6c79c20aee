// Package hrtime provides the high-resolution monotonic timestamps used by
// event collectors, the clock-aware sleeps every modelled delay goes
// through, and the global virtual-time scale applied to modelled network
// delays. Computation is modelled as a delay too: vnet.Host.Occupy holds
// a CPU slot across a Sleep.
//
// The paper's event collectors record two timestamps per communication
// operation using the host's cycle counter, and so do ours where the
// kernel trusts it: on linux/amd64 with the "tsc" clocksource, Now is a
// bare RDTSC scaled to nanoseconds by a multiplier calibrated against
// the monotonic clock at init (counter.go), about half the cost of
// time.Since. Everywhere else Now is time.Since on Go's monotonic clock.
// Either way Stamp values are nanoseconds since a process-local epoch.
package hrtime

import (
	"runtime"
	"sync/atomic"
	"time"

	"eventspace/internal/vclock"
)

// Stamp is a monotonic timestamp in nanoseconds since the process epoch.
type Stamp = int64

var epoch = time.Now()

// Now returns the current monotonic timestamp: virtual nanoseconds when
// the discrete-event clock is active, real nanoseconds otherwise (from
// the cycle counter where it is in use).
func Now() Stamp {
	if vclock.Active() {
		return vclock.Now()
	}
	return now()
}

// sinceEpoch is the monotonic clock the counter is calibrated against.
func sinceEpoch() int64 { return int64(time.Since(epoch)) }

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
