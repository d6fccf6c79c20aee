package pastset

//lint:file-allow wallclock blocking-read tests need real timeouts to catch a hang

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func mustWrite(t *testing.T, e *Element, data []byte) uint64 {
	t.Helper()
	seq, err := e.Write(data)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	return seq
}

func TestNewElementRejectsBadCapacity(t *testing.T) {
	for _, c := range []int{0, -1, -100} {
		if _, err := NewElement("x", c); err == nil {
			t.Errorf("capacity %d: want error", c)
		}
	}
}

func TestMustNewElementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("want panic")
		}
	}()
	MustNewElement("x", 0)
}

func TestWriteAssignsMonotonicSeq(t *testing.T) {
	e := MustNewElement("e", 4)
	for i := 0; i < 10; i++ {
		seq := mustWrite(t, e, []byte{byte(i)})
		if seq != uint64(i) {
			t.Fatalf("write %d: seq = %d", i, seq)
		}
	}
}

func TestBoundedOverwriteDiscardsOldest(t *testing.T) {
	e := MustNewElement("e", 3)
	for i := 0; i < 5; i++ {
		mustWrite(t, e, []byte{byte(i)})
	}
	st := e.Stats()
	if st.Written != 5 || st.Overwritten != 2 || st.Retained != 3 {
		t.Fatalf("stats = %+v", st)
	}
	c := e.NewCursor()
	for want := 2; want < 5; want++ {
		tu, err := c.TryNext()
		if err != nil {
			t.Fatalf("TryNext: %v", err)
		}
		if tu.Data[0] != byte(want) {
			t.Fatalf("got tuple %d, want %d", tu.Data[0], want)
		}
	}
	if _, err := c.TryNext(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
}

func TestCursorSkipAccounting(t *testing.T) {
	e := MustNewElement("e", 2)
	c := e.NewCursor()
	for i := 0; i < 6; i++ {
		mustWrite(t, e, []byte{byte(i)})
	}
	var got []byte
	for {
		tu, err := c.TryNext()
		if err != nil {
			break
		}
		got = append(got, tu.Data[0])
	}
	if len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("delivered %v, want [4 5]", got)
	}
	if c.Skipped() != 4 {
		t.Fatalf("Skipped = %d, want 4", c.Skipped())
	}
	if c.Read() != 2 {
		t.Fatalf("Read = %d, want 2", c.Read())
	}
	if r := c.Rate(); r != 2.0/6.0 {
		t.Fatalf("Rate = %v, want %v", r, 2.0/6.0)
	}
}

func TestCursorRateNoTraffic(t *testing.T) {
	e := MustNewElement("e", 2)
	c := e.NewCursor()
	if r := c.Rate(); r != 1 {
		t.Fatalf("Rate with no traffic = %v, want 1", r)
	}
}

func TestCursorAtEndSkipsHistory(t *testing.T) {
	e := MustNewElement("e", 8)
	mustWrite(t, e, []byte{1})
	mustWrite(t, e, []byte{2})
	c := e.NewCursorAtEnd()
	if _, err := c.TryNext(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
	mustWrite(t, e, []byte{3})
	tu, err := c.TryNext()
	if err != nil || tu.Data[0] != 3 {
		t.Fatalf("got %v %v, want tuple 3", tu, err)
	}
	if c.Skipped() != 0 {
		t.Fatalf("Skipped = %d, want 0 (history skipped before cursor start does not count)", c.Skipped())
	}
}

func TestBlockingNextWakesOnWrite(t *testing.T) {
	e := MustNewElement("e", 2)
	c := e.NewCursor()
	done := make(chan Tuple, 1)
	go func() {
		tu, err := c.Next()
		if err != nil {
			t.Errorf("Next: %v", err)
		}
		done <- tu
	}()
	time.Sleep(5 * time.Millisecond)
	mustWrite(t, e, []byte{42})
	select {
	case tu := <-done:
		if tu.Data[0] != 42 {
			t.Fatalf("got %v", tu)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked reader not woken by write")
	}
}

func TestBlockingNextWakesOnClose(t *testing.T) {
	e := MustNewElement("e", 2)
	c := e.NewCursor()
	errc := make(chan error, 1)
	go func() {
		_, err := c.Next()
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	e.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked reader not woken by close")
	}
}

func TestCloseDrainsRetainedThenErrClosed(t *testing.T) {
	e := MustNewElement("e", 4)
	mustWrite(t, e, []byte{1})
	mustWrite(t, e, []byte{2})
	e.Close()
	if _, err := e.Write([]byte{3}); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
	c := e.NewCursor()
	for i := 1; i <= 2; i++ {
		tu, err := c.Next()
		if err != nil || tu.Data[0] != byte(i) {
			t.Fatalf("drain %d: %v %v", i, tu, err)
		}
	}
	if _, err := c.Next(); !errors.Is(err, ErrClosed) {
		t.Fatalf("after drain: %v", err)
	}
	if !e.Closed() {
		t.Fatal("Closed() = false")
	}
}

func TestLatest(t *testing.T) {
	e := MustNewElement("e", 2)
	if _, err := e.Latest(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Latest empty: %v", err)
	}
	mustWrite(t, e, []byte{1})
	mustWrite(t, e, []byte{2})
	mustWrite(t, e, []byte{3})
	tu, err := e.Latest()
	if err != nil || tu.Data[0] != 3 {
		t.Fatalf("Latest = %v %v", tu, err)
	}
	e.Close()
	// Latest still returns retained newest after close.
	if tu, err = e.Latest(); err != nil || tu.Data[0] != 3 {
		t.Fatalf("Latest after close = %v %v", tu, err)
	}
}

func TestLatestClosedEmpty(t *testing.T) {
	e := MustNewElement("e", 2)
	e.Close()
	if _, err := e.Latest(); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestDrainInto(t *testing.T) {
	e := MustNewElement("e", 8)
	for i := 0; i < 5; i++ {
		mustWrite(t, e, []byte{byte(i)})
	}
	c := e.NewCursor()
	got := c.DrainInto(nil)
	if len(got) != 5 {
		t.Fatalf("drained %d tuples", len(got))
	}
	for i, tu := range got {
		if tu.Data[0] != byte(i) || tu.Seq != uint64(i) {
			t.Fatalf("tuple %d = %+v", i, tu)
		}
	}
	if got = c.DrainInto(got[:0]); len(got) != 0 {
		t.Fatalf("second drain returned %d tuples", len(got))
	}
}

func TestLag(t *testing.T) {
	e := MustNewElement("e", 4)
	c := e.NewCursor()
	if c.Lag() != 0 {
		t.Fatalf("lag = %d", c.Lag())
	}
	for i := 0; i < 3; i++ {
		mustWrite(t, e, nil)
	}
	if c.Lag() != 3 {
		t.Fatalf("lag = %d, want 3", c.Lag())
	}
	if _, err := c.TryNext(); err != nil {
		t.Fatal(err)
	}
	if c.Lag() != 2 {
		t.Fatalf("lag = %d, want 2", c.Lag())
	}
	// Overflow: lag never exceeds capacity.
	for i := 0; i < 10; i++ {
		mustWrite(t, e, nil)
	}
	if c.Lag() != 4 {
		t.Fatalf("lag after overflow = %d, want 4", c.Lag())
	}
}

func TestMultipleCursorsIndependent(t *testing.T) {
	e := MustNewElement("e", 8)
	c1 := e.NewCursor()
	c2 := e.NewCursor()
	for i := 0; i < 4; i++ {
		mustWrite(t, e, []byte{byte(i)})
	}
	for i := 0; i < 4; i++ {
		if tu, err := c1.TryNext(); err != nil || tu.Data[0] != byte(i) {
			t.Fatalf("c1 %d: %v %v", i, tu, err)
		}
	}
	for i := 0; i < 4; i++ {
		if tu, err := c2.TryNext(); err != nil || tu.Data[0] != byte(i) {
			t.Fatalf("c2 %d: %v %v", i, tu, err)
		}
	}
}

func TestConcurrentWritersSingleReader(t *testing.T) {
	const writers, perWriter = 8, 500
	e := MustNewElement("e", writers*perWriter) // big enough: no loss
	c := e.NewCursor()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := e.Write([]byte{byte(w)}); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	e.Close()
	counts := make(map[byte]int)
	for {
		tu, err := c.Next()
		if err != nil {
			break
		}
		counts[tu.Data[0]]++
	}
	for w := 0; w < writers; w++ {
		if counts[byte(w)] != perWriter {
			t.Fatalf("writer %d: delivered %d tuples, want %d", w, counts[byte(w)], perWriter)
		}
	}
	if c.Skipped() != 0 {
		t.Fatalf("skipped %d with adequate capacity", c.Skipped())
	}
}

func TestConcurrentReadersEachSeeFullStream(t *testing.T) {
	const readers, writes = 4, 1000
	e := MustNewElement("e", writes)
	var wg sync.WaitGroup
	totals := make([]uint64, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := e.NewCursor()
			for {
				if _, err := c.Next(); err != nil {
					break
				}
			}
			totals[r] = c.Read()
		}(r)
	}
	for i := 0; i < writes; i++ {
		mustWrite(t, e, nil)
	}
	e.Close()
	wg.Wait()
	for r, n := range totals {
		if n != writes {
			t.Fatalf("reader %d saw %d tuples, want %d", r, n, writes)
		}
	}
}

// Property: for any capacity >= 1 and write count, conservation holds:
// written == retained + overwritten, retained <= capacity, and a fresh
// cursor delivers exactly the retained suffix in order.
func TestQuickConservation(t *testing.T) {
	f := func(capRaw uint8, nRaw uint16) bool {
		capacity := int(capRaw%64) + 1
		n := int(nRaw % 2048)
		e := MustNewElement("q", capacity)
		for i := 0; i < n; i++ {
			if _, err := e.Write([]byte{byte(i)}); err != nil {
				return false
			}
		}
		st := e.Stats()
		if st.Written != uint64(n) {
			return false
		}
		if st.Retained > capacity {
			return false
		}
		if uint64(st.Retained)+st.Overwritten != st.Written {
			return false
		}
		c := e.NewCursor()
		want := n - st.Retained
		for {
			tu, err := c.TryNext()
			if errors.Is(err, ErrEmpty) {
				break
			}
			if err != nil {
				return false
			}
			if tu.Seq != uint64(want) || tu.Data[0] != byte(want) {
				return false
			}
			want++
		}
		return want == n && int(c.Read()) == st.Retained
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: read + skipped of a cursor created before any write equals
// total written, for any interleaving of write bursts and drains.
func TestQuickCursorAccounting(t *testing.T) {
	f := func(capRaw uint8, bursts []uint8) bool {
		capacity := int(capRaw%16) + 1
		e := MustNewElement("q", capacity)
		c := e.NewCursor()
		var written uint64
		for _, b := range bursts {
			n := int(b % 32)
			for i := 0; i < n; i++ {
				e.Write(nil)
				written++
			}
			if b%2 == 0 {
				c.DrainInto(nil)
			}
		}
		c.DrainInto(nil)
		return c.Read()+c.Skipped() == written
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryCreateLookupRemove(t *testing.T) {
	r := NewRegistry()
	e, err := r.Create("a", 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("a", 4); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	got, err := r.Lookup("a")
	if err != nil || got != e {
		t.Fatalf("Lookup = %v, %v", got, err)
	}
	if _, err := r.Lookup("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing lookup: %v", err)
	}
	if err := r.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if !e.Closed() {
		t.Fatal("Remove did not close element")
	}
	if err := r.Remove("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double remove: %v", err)
	}
}

func TestRegistryNamesAndCloseAll(t *testing.T) {
	r := NewRegistry()
	var elems []*Element
	for i := 0; i < 5; i++ {
		e, err := r.Create(fmt.Sprintf("e%d", i), 2)
		if err != nil {
			t.Fatal(err)
		}
		elems = append(elems, e)
	}
	if n := len(r.Names()); n != 5 {
		t.Fatalf("Names() returned %d entries", n)
	}
	r.CloseAll()
	for i, e := range elems {
		if !e.Closed() {
			t.Fatalf("element %d not closed", i)
		}
	}
}

func TestRegistryCreateBadCapacity(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Create("bad", 0); err == nil {
		t.Fatal("want error for capacity 0")
	}
}

// TestFixedElementCopySemantics pins the fixed-record ownership rules:
// writes copy in (the caller's buffer is reusable immediately) and reads
// copy out (an overwrite of the arena slot never mutates a delivered
// payload).
func TestFixedElementCopySemantics(t *testing.T) {
	e, err := NewElementFixed("fixed", 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if e.RecordSize() != 4 {
		t.Fatalf("RecordSize = %d", e.RecordSize())
	}
	scratch := []byte{1, 1, 1, 1}
	if _, err := e.WriteCopy(scratch); err != nil {
		t.Fatal(err)
	}
	// Reusing the caller buffer must not affect the stored record.
	copy(scratch, []byte{9, 9, 9, 9})
	if _, err := e.WriteCopy(scratch); err != nil {
		t.Fatal(err)
	}
	c := e.NewCursor()
	first, err := c.TryNext()
	if err != nil {
		t.Fatal(err)
	}
	if string(first.Data) != string([]byte{1, 1, 1, 1}) {
		t.Fatalf("first record = %v", first.Data)
	}
	// Overwrite the first record's arena slot (capacity 2: two more
	// writes lap it); a batch drained earlier must not change.
	got := append([]byte(nil), first.Data...)
	e.WriteCopy([]byte{7, 7, 7, 7})
	e.WriteCopy([]byte{8, 8, 8, 8})
	if string(first.Data) != string(got) {
		// first.Data is cursor-owned; the arena overwrite above must
		// not reach it.
		t.Fatalf("delivered payload mutated by overwrite: %v", first.Data)
	}
	// Size and mode guards.
	if _, err := e.WriteCopy([]byte{1, 2}); err == nil {
		t.Fatal("short record accepted")
	}
	if _, err := e.Write([]byte{1, 2, 3}); err == nil {
		t.Fatal("Write with wrong size accepted on fixed element")
	}
	v := MustNewElement("var", 2)
	if _, err := v.WriteCopy([]byte{1}); err == nil {
		t.Fatal("WriteCopy on variable element accepted")
	}
}

// TestFixedElementDrainInto checks that a drained batch shares one
// cursor-owned buffer and stays intact until the next read.
func TestFixedElementDrainInto(t *testing.T) {
	e, err := NewElementFixed("fixed", 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := byte(0); i < 5; i++ {
		e.Write([]byte{i, i})
	}
	c := e.NewCursor()
	batch := c.DrainInto(nil)
	if len(batch) != 5 {
		t.Fatalf("drained %d", len(batch))
	}
	for i, tu := range batch {
		if tu.Seq != uint64(i) || tu.Data[0] != byte(i) || tu.Data[1] != byte(i) {
			t.Fatalf("tuple %d = %+v", i, tu)
		}
	}
	// Steady state: the write-then-drain cycle does not allocate once
	// the cursor's copy-out buffer is warm.
	rec := []byte{0, 0}
	if avg := testing.AllocsPerRun(50, func() {
		for i := byte(0); i < 5; i++ {
			rec[0], rec[1] = i, i
			if _, err := e.WriteCopy(rec); err != nil {
				t.Fatal(err)
			}
		}
		batch = c.DrainInto(batch[:0])
		if len(batch) != 5 {
			t.Fatalf("drained %d", len(batch))
		}
	}); avg != 0 {
		t.Fatalf("warm write+DrainInto cycle allocates %.2f allocs/op", avg)
	}
}

// TestDrainBytesInto covers the raw batch drain both element modes use.
func TestDrainBytesInto(t *testing.T) {
	for _, fixed := range []bool{true, false} {
		var e *Element
		if fixed {
			e, _ = NewElementFixed("f", 16, 2)
		} else {
			e = MustNewElement("v", 16)
		}
		for i := byte(0); i < 6; i++ {
			e.Write([]byte{i, i})
		}
		c := e.NewCursor()
		buf, n, err := c.DrainBytesInto(nil, 4, 2)
		if err != nil || n != 4 || len(buf) != 8 {
			t.Fatalf("fixed=%v: drain = %d records %d bytes, %v", fixed, n, len(buf), err)
		}
		for i := byte(0); i < 4; i++ {
			if buf[2*i] != i || buf[2*i+1] != i {
				t.Fatalf("fixed=%v: bytes %v", fixed, buf)
			}
		}
		buf, n, err = c.DrainBytesInto(buf[:0], 0, 2)
		if err != nil || n != 2 || len(buf) != 4 {
			t.Fatalf("fixed=%v: second drain = %d records, %v", fixed, n, err)
		}
		if c.Read() != 6 {
			t.Fatalf("fixed=%v: cursor read %d", fixed, c.Read())
		}
	}
	// Record-size mismatch: the fixed element rejects the whole drain,
	// the variable element stops at the offending record.
	f, _ := NewElementFixed("f2", 4, 2)
	f.Write([]byte{1, 1})
	if _, n, err := f.NewCursor().DrainBytesInto(nil, 0, 3); err == nil || n != 0 {
		t.Fatal("record-size mismatch accepted on fixed element")
	}
	v := MustNewElement("v2", 4)
	v.Write([]byte{1, 1})
	v.Write([]byte{2, 2, 2})
	cur := v.NewCursor()
	buf, n, err := cur.DrainBytesInto(nil, 0, 2)
	if err == nil || n != 1 || len(buf) != 2 {
		t.Fatalf("ragged variable drain = %d records %v bytes, %v", n, buf, err)
	}
}

// TestFixedWriteCopyZeroAlloc pins the arena write path at zero
// allocations, overwrites included.
func TestFixedWriteCopyZeroAlloc(t *testing.T) {
	e, err := NewElementFixed("fixed", 32, 28)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 28)
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := e.WriteCopy(rec); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("WriteCopy allocates %.2f allocs/op, want 0", avg)
	}
}

func BenchmarkElementWrite(b *testing.B) {
	e := MustNewElement("b", 4096)
	data := make([]byte, 28)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Write(data)
	}
}

func BenchmarkCursorTryNext(b *testing.B) {
	e := MustNewElement("b", 1<<16)
	for i := 0; i < 1<<16; i++ {
		e.Write(nil)
	}
	c := e.NewCursor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.TryNext(); err != nil {
			b.StopTimer()
			c = e.NewCursor()
			b.StartTimer()
		}
	}
}

// BenchmarkDrainBytesInto is the gather path's warm batch drain: 64
// records written, then drained into a buffer already sized for them —
// at most two block copies into the caller's memory and no allocation
// (make gather-gates holds it at 0 allocs/op). The capacity is the trace
// buffers', so the window wraps the arena every 59th batch or so.
func BenchmarkDrainBytesInto(b *testing.B) {
	const batch, rs = 64, 28
	e, err := NewElementFixed("b", 3750, rs)
	if err != nil {
		b.Fatal(err)
	}
	c := e.NewCursor()
	rec := make([]byte, rs)
	dst := make([]byte, 0, batch*rs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < batch; k++ {
			if _, err := e.WriteCopy(rec); err != nil {
				b.Fatal(err)
			}
		}
		out, n, err := c.DrainBytesInto(dst, 0, rs)
		if err != nil || n != batch || &out[0] != &dst[:1][0] {
			b.Fatalf("drained %d records, %v; in place: %v", n, err, err == nil && &out[0] == &dst[:1][0])
		}
	}
}
