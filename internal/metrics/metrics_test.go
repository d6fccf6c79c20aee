package metrics

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eventspace/internal/hrtime"
	"eventspace/internal/vclock"
)

func TestBucketIndexBounds(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3},
		{1023, 10}, {1024, 11}, {1 << 38, NumBuckets - 1},
		{math.MaxInt64, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Every bucket's contents are below its bound.
	for i := 0; i < NumBuckets-1; i++ {
		if b := BucketBound(i); bucketIndex(b-1) > i || bucketIndex(b) <= i {
			t.Errorf("bucket %d bound %d does not separate", i, b)
		}
	}
}

func TestOpRecordAndSnapshot(t *testing.T) {
	r := New()
	op := r.Op(KindStub, "s1")
	op.Record(100, 10, nil)
	op.Record(200, 20, errors.New("boom"))
	op.Record(50, 0, nil)

	s := r.Snapshot()
	if len(s.Ops) != 1 {
		t.Fatalf("snapshot ops = %d, want 1", len(s.Ops))
	}
	o := s.Ops[0]
	if o.Kind != KindStub || o.Name != "s1" {
		t.Fatalf("site identity = %v/%q", o.Kind, o.Name)
	}
	if o.Ops != 3 || o.Errs != 1 || o.Bytes != 30 {
		t.Fatalf("ops/errs/bytes = %d/%d/%d", o.Ops, o.Errs, o.Bytes)
	}
	if o.Lat.Count != 3 || o.Lat.SumNS != 350 || o.Lat.MinNS != 50 || o.Lat.MaxNS != 200 {
		t.Fatalf("hist = %+v", o.Lat)
	}
	if mean := o.Lat.MeanNS(); mean < 116 || mean > 117 {
		t.Fatalf("mean = %v", mean)
	}
}

func TestQuantileWithinObservedRange(t *testing.T) {
	r := New()
	op := r.Op(KindGather, "g")
	for i := int64(1); i <= 1000; i++ {
		op.Record(i*1000, 0, nil) // 1µs .. 1ms
	}
	h := r.Snapshot().Ops[0].Lat
	var last int64
	for _, p := range []float64{0, 0.5, 0.9, 0.99, 1} {
		q := h.Quantile(p)
		if q < h.MinNS || q > h.MaxNS {
			t.Fatalf("Quantile(%v) = %d outside [%d, %d]", p, q, h.MinNS, h.MaxNS)
		}
		if q < last {
			t.Fatalf("Quantile(%v) = %d < previous %d (not monotone)", p, q, last)
		}
		last = q
	}
	// p50 of a uniform 1µs..1ms spread lands within a power of two of
	// the true median.
	if q := h.Quantile(0.5); q < 250_000 || q > 1_100_000 {
		t.Fatalf("p50 = %d implausible", q)
	}
	if h.Quantile(0) == 0 {
		t.Fatal("p0 = 0 with min 1µs")
	}
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	op := r.Op(KindCollector, "x")
	if op != nil {
		t.Fatal("nil registry handed out a site")
	}
	op.Record(5, 5, nil) // must not panic
	op.Observe(5)
	op.Keep(new(atomic.Uint64), 5)()
	var c atomic.Uint64
	r.Count("y", &c) // must not panic
	c.Add(3)
	if s := r.Snapshot(); len(s.Ops) != 0 || len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestRegistryDedupesSites(t *testing.T) {
	r := New()
	if r.Op(KindReader, "a") != r.Op(KindReader, "a") {
		t.Fatal("same (kind, name) produced distinct sites")
	}
	if r.Op(KindReader, "a") == r.Op(KindStub, "a") {
		t.Fatal("distinct kinds share a site")
	}
	var a, b, other atomic.Uint64
	r.Count("c", &a)
	r.Count("c", &b)
	r.Count("d", &other)
	a.Add(2)
	b.Add(1)
	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "c" || s.Counters[1].Name != "d" {
		t.Fatalf("counters = %+v, want c and d", s.Counters)
	}
	if got := s.Counters[0].Value; got != 3 {
		t.Fatalf("counter = %d, want 3 (the sum of its cells)", got)
	}
	a.Add(4)
	if got := r.Snapshot().Counters[0].Value; got != 7 {
		t.Fatalf("counter = %d after its cell grew, want 7", got)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := New()
	op := r.Op(KindScopePull, "scope")
	var shared atomic.Uint64
	r.Count("events", &shared)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			// Half the increments land in a cell registered concurrently
			// with the others' increments and snapshots.
			own := new(atomic.Uint64)
			r.Count("events", own)
			for i := 0; i < per; i++ {
				op.Record(seed+int64(i), 1, nil)
				if i%2 == 0 {
					own.Add(1)
				} else {
					shared.Add(1)
				}
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Ops[0].Ops != workers*per || s.Ops[0].Lat.Count != workers*per {
		t.Fatalf("ops = %d, hist count = %d", s.Ops[0].Ops, s.Ops[0].Lat.Count)
	}
	if s.Counters[0].Value != workers*per {
		t.Fatalf("counter = %d", s.Counters[0].Value)
	}
}

// TestOpKeep pins a kept count: the site reads its growth since Keep,
// release folds the final growth in and stops reading, and Observe
// times without counting.
func TestOpKeep(t *testing.T) {
	r := New()
	op := r.Op(KindCollector, "kept")
	var a, b atomic.Uint64
	a.Store(100)
	releaseA := op.Keep(&a, 28)
	releaseB := op.Keep(&b, 28)
	a.Add(3)
	b.Add(2)
	op.Observe(40)
	if o := r.Snapshot().Ops[0]; o.Ops != 5 || o.Bytes != 5*28 || o.Lat.Count != 1 {
		t.Fatalf("live site = %+v, want 5 ops, 1 timed", o)
	}
	releaseA()
	a.Add(10)
	b.Add(1)
	if o := r.Snapshot().Ops[0]; o.Ops != 6 || o.Bytes != 6*28 {
		t.Fatalf("after release = %+v, want 6 ops", o)
	}
	releaseB()
	b.Add(10)
	if o := r.Snapshot().Ops[0]; o.Ops != 6 {
		t.Fatalf("after both releases = %+v, want 6 ops", o)
	}
}

func TestTotalsMergeByKind(t *testing.T) {
	r := New()
	r.Op(KindStub, "a").Record(10, 1, nil)
	r.Op(KindStub, "b").Record(30, 2, errors.New("x"))
	r.Op(KindGather, "g").Record(20, 4, nil)
	tot := r.Snapshot().Totals()
	if len(tot) != 2 {
		t.Fatalf("totals = %d kinds, want 2", len(tot))
	}
	stub := tot[0]
	if stub.Kind != KindStub || stub.Ops != 2 || stub.Errs != 1 || stub.Bytes != 3 {
		t.Fatalf("stub total = %+v", stub)
	}
	if stub.Lat.Count != 2 || stub.Lat.MinNS != 10 || stub.Lat.MaxNS != 30 || stub.Lat.SumNS != 40 {
		t.Fatalf("stub merged hist = %+v", stub.Lat)
	}
}

// TestVirtualClockDurationsAreExact proves the histogram is
// virtual-clock-aware: durations measured with hrtime under the
// discrete-event clock are exact model time, so the recorded
// distribution is deterministic.
func TestVirtualClockDurationsAreExact(t *testing.T) {
	r := New()
	op := r.Op(KindScopePull, "virtual")
	vclock.Enable(0)
	defer vclock.Disable()
	done := make(chan struct{})
	vclock.Go(func() {
		defer close(done)
		for i := 1; i <= 3; i++ {
			start := hrtime.Now()
			hrtime.Sleep(time.Duration(i) * time.Millisecond)
			op.Record(hrtime.Since(start), 0, nil)
		}
	})
	<-done
	vclock.Quiesce(10 * time.Second)
	h := r.Snapshot().Ops[0].Lat
	if h.Count != 3 {
		t.Fatalf("count = %d", h.Count)
	}
	if h.SumNS != int64(6*time.Millisecond) {
		t.Fatalf("sum = %d, want exactly %d", h.SumNS, int64(6*time.Millisecond))
	}
	if h.MinNS != int64(time.Millisecond) || h.MaxNS != int64(3*time.Millisecond) {
		t.Fatalf("min/max = %d/%d", h.MinNS, h.MaxNS)
	}
}
