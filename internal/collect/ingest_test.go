package collect

import (
	"testing"

	"eventspace/internal/metrics"
)

func batch(tuples int) []byte {
	return make([]byte, tuples*TupleSize)
}

func TestIngestQueueFIFO(t *testing.T) {
	q := NewIngestQueue(4)
	a, b, c := batch(1), batch(2), batch(3)
	q.Push(a)
	q.Push(b)
	q.Push(c)
	if q.Len() != 3 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i, want := range [][]byte{a, b, c} {
		got, ok := q.Pop()
		if !ok || &got[0] != &want[0] {
			t.Fatalf("pop %d: wrong batch (ok=%v)", i, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop on empty queue succeeded")
	}
	st := q.Stats()
	if st.Pushed != 3 || st.Popped != 3 || st.Queued != 0 || st.ShedBatches != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestIngestQueueShedsOldest(t *testing.T) {
	q := NewIngestQueue(2)
	a, b, c := batch(5), batch(1), batch(1)
	q.Push(a)
	q.Push(b)
	q.Push(c) // full: sheds a, the oldest
	st := q.Stats()
	if st.ShedBatches != 1 || st.ShedTuples != 5 || st.ShedBytes != uint64(5*TupleSize) {
		t.Fatalf("shed stats = %+v", st)
	}
	got, ok := q.Pop()
	if !ok || &got[0] != &b[0] {
		t.Fatal("oldest surviving batch should be b")
	}
	got, ok = q.Pop()
	if !ok || &got[0] != &c[0] {
		t.Fatal("second surviving batch should be c")
	}
}

// TestIngestShedCountsRegistered: a registry reads the queues' own shed
// counts, summed over every queue registered under one prefix.
func TestIngestShedCountsRegistered(t *testing.T) {
	reg := metrics.New()
	a, b := NewIngestQueue(1), NewIngestQueue(1)
	a.RegisterCounts(reg, "lb/ingest")
	b.RegisterCounts(reg, "lb/ingest")
	for i := 1; i <= 4; i++ {
		a.Push(batch(i))
		b.Push(batch(2 * i))
	}
	sa, sb := a.Stats(), b.Stats()
	want := map[string]uint64{
		"lb/ingest.shed.batches": sa.ShedBatches + sb.ShedBatches,
		"lb/ingest.shed.tuples":  sa.ShedTuples + sb.ShedTuples,
	}
	if want["lb/ingest.shed.batches"] != 6 || want["lb/ingest.shed.tuples"] != 18 {
		t.Fatalf("queues shed %+v and %+v, want 6 batches of 18 tuples between them", sa, sb)
	}
	got := reg.Snapshot().Counters
	if len(got) != len(want) {
		t.Fatalf("counters = %+v, want %v", got, want)
	}
	for _, c := range got {
		if c.Value != want[c.Name] {
			t.Errorf("%s = %d, the queues count %d", c.Name, c.Value, want[c.Name])
		}
	}
}

func TestIngestQueueSummaryOnly(t *testing.T) {
	q := NewIngestQueue(4)
	q.Push(batch(2))
	q.SetSummaryOnly(true)
	q.Push(batch(3))
	q.Push(batch(4))
	st := q.Stats()
	if st.SummarizedBatches != 2 || st.SummarizedTuples != 7 || st.SummarizedBytes != uint64(7*TupleSize) {
		t.Fatalf("summary stats = %+v", st)
	}
	// The batch queued before the flip is still drainable.
	if st.Queued != 1 {
		t.Fatalf("queued = %d", st.Queued)
	}
	if _, ok := q.Pop(); !ok {
		t.Fatal("pre-flip batch lost")
	}
	q.SetSummaryOnly(false)
	q.Push(batch(1))
	if q.Len() != 1 {
		t.Fatal("push after summary-only cleared not retained")
	}
}

func TestIngestQueueIgnoresEmpty(t *testing.T) {
	q := NewIngestQueue(2)
	q.Push(nil)
	q.Push([]byte{})
	if st := q.Stats(); st.Pushed != 0 || st.Queued != 0 {
		t.Fatalf("stats after empty pushes = %+v", st)
	}
}

// TestIngestShedZeroAlloc is the shed hot-path allocation gate: pushing
// into a full ring (shedding the oldest batch each time) must not
// allocate.
func TestIngestShedZeroAlloc(t *testing.T) {
	q := NewIngestQueue(2)
	data := batch(4)
	q.Push(batch(4))
	q.Push(batch(4))
	allocs := testing.AllocsPerRun(1000, func() {
		q.Push(data) // full: sheds, then retains data
	})
	if allocs != 0 {
		t.Fatalf("shed path allocates %.1f allocs/op, want 0", allocs)
	}
}

func BenchmarkIngestShed(b *testing.B) {
	q := NewIngestQueue(2)
	data := batch(4)
	q.Push(batch(4))
	q.Push(batch(4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(data)
	}
}
