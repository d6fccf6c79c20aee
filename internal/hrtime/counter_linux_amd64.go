package hrtime

import "os"

// clocksourcePath names the kernel's current clocksource.
const clocksourcePath = "/sys/devices/system/clocksource/clocksource0/current_clocksource"

// rdtsc reads the cycle counter (rdtsc_amd64.s). It takes no fence.
func rdtsc() uint64

func init() {
	if useCounter(os.ReadFile(clocksourcePath)) {
		counter = calibrateCounter(rdtsc, sinceEpoch)
	}
}

// now is the real clock: the cycle counter when calibrated, else
// time.Since(epoch).
func now() int64 {
	if counter.mult != 0 {
		return counter.ns(rdtsc())
	}
	return sinceEpoch()
}
