// Package hrtime provides the high-resolution monotonic timestamps used by
// event collectors and the clock-aware sleeps every modelled delay goes
// through. Computation is modelled as a delay too: vnet.Host.Occupy holds
// a CPU slot across a Sleep.
//
// A modelled delay happens only on modelled time. Under the
// discrete-event clock (package vclock) Sleep and SleepOutside wait
// exactly d of virtual time; on the wall clock they return at once, so a
// network hop there costs only the host time of its code. There is no
// scale between the two: a run either models its delays faithfully or
// measures the code alone.
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
	"fmt"
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

// SetScale is kept only for callers that still toggle a delay scale
// between wall-clock and modelled phases: 0 (the wall clock, no delays)
// and 1 (modelled delays at their configured value) are the two states
// the clock itself already decides, so both do nothing, and any other
// factor panics. ROADMAP item 2(d) deletes it.
func SetScale(f float64) {
	if f != 0 && f != 1 {
		panic(fmt.Sprintf("hrtime: delay scale %v: only 0 and 1 exist, and the clock decides which", f))
	}
}

// Sleep waits d of modelled time from a registered model goroutine:
// exactly d of virtual time under the discrete-event clock, nothing on
// the wall clock.
func Sleep(d time.Duration) { vclock.Sleep(d) }

// SleepOutside waits d of model time from a goroutine that is not a
// registered model participant — a driver loop polling monitor state
// between phases. Under the virtual clock it waits on a timer, a model
// goroutine due first at now+d, and moves at that instant before the
// model does (see vclock.SleepOutside); on the wall clock it returns at
// once.
func SleepOutside(d time.Duration) { vclock.SleepOutside(d) }
