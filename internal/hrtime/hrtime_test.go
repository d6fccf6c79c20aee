package hrtime

import (
	"testing"
	"time"
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

func TestScaleRoundTrip(t *testing.T) {
	old := Scale()
	defer SetScale(old)
	SetScale(0.5)
	if got := Scale(); got < 0.49 || got > 0.51 {
		t.Fatalf("Scale = %v, want ~0.5", got)
	}
	if d := ScaleDelay(time.Millisecond); d < 480*time.Microsecond || d > 520*time.Microsecond {
		t.Fatalf("ScaleDelay(1ms) = %v at scale 0.5", d)
	}
	SetScale(-1)
	if Scale() != 0 {
		t.Fatalf("negative scale not clamped: %v", Scale())
	}
	if ScaleDelay(time.Hour) != 0 {
		t.Fatal("scale 0 did not zero delays")
	}
	SetScale(100)
	if Scale() != 16 {
		t.Fatalf("huge scale not clamped: %v", Scale())
	}
}

func TestSleepSkipsSubMicrosecond(t *testing.T) {
	old := Scale()
	defer SetScale(old)
	SetScale(0.0001)
	start := time.Now()
	Sleep(time.Millisecond) // scaled to 100ns: skipped
	if el := time.Since(start); el > 500*time.Microsecond {
		t.Fatalf("sub-microsecond sleep took %v", el)
	}
}

func TestSleepHonorsScale(t *testing.T) {
	old := Scale()
	defer SetScale(old)
	SetScale(1)
	start := time.Now()
	Sleep(10 * time.Millisecond)
	if el := time.Since(start); el < 10*time.Millisecond {
		t.Fatalf("Sleep(10ms) returned after %v", el)
	}
}

var nowSink int64

func BenchmarkNow(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nowSink += Now()
	}
}
