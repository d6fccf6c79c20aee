package hrtime

import (
	"testing"
	"time"

	"eventspace/internal/vclock"
)

func TestNowMonotonic(t *testing.T) {
	a := Now()
	b := Now()
	if b < a {
		t.Fatalf("Now went backwards: %d then %d", a, b)
	}
	time.Sleep(time.Millisecond)
	if Since(a) < int64(time.Millisecond) {
		t.Fatalf("Since(a) = %d after 1ms sleep", Since(a))
	}
}

// On the wall clock a modelled delay costs nothing: Sleep and
// SleepOutside return without waiting, however long the delay.
func TestSleepReturnsAtOnceOnWallClock(t *testing.T) {
	start := time.Now()
	Sleep(time.Hour)
	SleepOutside(time.Hour)
	if el := time.Since(start); el > time.Second {
		t.Fatalf("wall-clock Sleep and SleepOutside of an hour took %v", el)
	}
}

// Under the virtual clock Sleep waits exactly its delay, unscaled, and
// SleepOutside parks a driver until the model reaches its deadline.
func TestSleepAdvancesVirtualClockExactly(t *testing.T) {
	vclock.Enable(0)
	defer vclock.Disable()
	defer vclock.Quiesce(10 * time.Second)
	for _, d := range []time.Duration{time.Nanosecond, 300 * time.Nanosecond, 50 * time.Microsecond, 7 * time.Millisecond, time.Hour} {
		done := make(chan int64, 1)
		vclock.Go(func() {
			start := Now()
			Sleep(d)
			done <- Since(start)
		})
		if got := <-done; got != int64(d) {
			t.Fatalf("Sleep(%v) advanced Now by %v", d, time.Duration(got))
		}
		start := Now()
		SleepOutside(d)
		if got := Since(start); got != int64(d) {
			t.Fatalf("SleepOutside(%v) advanced Now by %v", d, time.Duration(got))
		}
	}
}

// SetScale accepts only the two states the clock decides by itself.
func TestSetScaleAcceptsOnlyZeroAndOne(t *testing.T) {
	SetScale(0)
	SetScale(1)
	for _, f := range []float64{0.5, 0.01, -1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetScale(%v) did not panic", f)
				}
			}()
			SetScale(f)
		}()
	}
}

var nowSink int64

func BenchmarkNow(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nowSink += Now()
	}
}
