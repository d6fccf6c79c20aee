package bench

import (
	"testing"

	"eventspace/internal/vclock"
)

// switchesWorkload is a fixed seeded run: the distributed load-balance
// monitor with parallel gathering on 16 Tins, 50 gsum rounds (after
// Run's 10 warm-up rounds).
func switchesWorkload() RunSpec {
	spec := QuickOptions().lbSpec("tin32", LBDistributed, true, Gsum)
	spec.Iterations = 50
	spec.TraceBufCap = traceCap(50)
	spec.MonitorCfg.IntermediateCap = traceCap(50)
	return spec
}

// parentSwitches is the goroutine switches switchesWorkload cost when
// every modelled delay, CPU slot claim and release was a step of its own
// goroutine, before vclock.Path: 16 929 hand-offs, counted on that code
// with the same counter.
const parentSwitches uint64 = 16929

// handOffSwitches is what switchesWorkload cost once each side of a
// modelled call — the client's round trip, the communication thread's
// reply and next request — ran as one Path, its request push, reply
// wait, fire and next pop among the steps: 5 664 hand-offs, against
// 10 731 when the call parked at each of them.
const handOffSwitches uint64 = 5664

// TestPathsCutSwitches bounds the goroutine switches of a fixed seeded
// workload to 70 % of what it cost before the call path ran on paths,
// and to at most 5 % over what it costs with the hand-offs on paths.
func TestPathsCutSwitches(t *testing.T) {
	before := vclock.Counters()
	if _, err := Run(switchesWorkload()); err != nil {
		t.Fatal(err)
	}
	after := vclock.Counters()
	switches := after.Switches - before.Switches
	t.Logf("%d switches (%.1f %% of %d), %d path steps in hand-offs, %d fast-path sleeps",
		switches, 100*float64(switches)/float64(parentSwitches), parentSwitches, after.PathSteps-before.PathSteps, after.FastSleeps-before.FastSleeps)
	if limit := parentSwitches * 7 / 10; switches > limit {
		t.Fatalf("%d goroutine switches, want at most %d (70 %% of %d)", switches, limit, parentSwitches)
	}
	if limit := handOffSwitches * 105 / 100; switches > limit {
		t.Fatalf("%d goroutine switches, want at most %d (%d + 5 %%)", switches, limit, handOffSwitches)
	}
}
