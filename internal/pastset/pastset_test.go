package pastset

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

// Closed reports whether Close has been called.
func (e *Element) Closed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// newElem creates an element of 1-byte records, the shape of most tests
// here: the byte is the record's serial number.
func newElem(t testing.TB, capacity int) *Element {
	t.Helper()
	e, err := NewElementFixed("e", capacity, 1)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mustWrite(t *testing.T, e *Element, b byte) uint64 {
	t.Helper()
	seq, err := e.WriteCopy([]byte{b})
	if err != nil {
		t.Fatalf("WriteCopy: %v", err)
	}
	return seq
}

// drain returns every unread record of a 1-byte-record element, up to
// max (0: all).
func drain(t *testing.T, c *Cursor, max int) []byte {
	t.Helper()
	out, n, err := c.DrainBytesInto(nil, max, 1)
	if err != nil || n != len(out) {
		t.Fatalf("DrainBytesInto = %d records, %d bytes, %v", n, len(out), err)
	}
	return out
}

func TestNewElementRejectsBadCapacity(t *testing.T) {
	for _, c := range []int{0, -1, -100} {
		if _, err := NewElementFixed("x", c, 1); err == nil {
			t.Errorf("capacity %d: want error", c)
		}
		if _, err := NewElementFixed("x", 4, c); err == nil {
			t.Errorf("record size %d: want error", c)
		}
	}
}

func TestWriteAssignsMonotonicSeq(t *testing.T) {
	e := newElem(t, 4)
	for i := 0; i < 10; i++ {
		seq := mustWrite(t, e, byte(i))
		if seq != uint64(i) {
			t.Fatalf("write %d: seq = %d", i, seq)
		}
	}
}

func TestBoundedOverwriteDiscardsOldest(t *testing.T) {
	e := newElem(t, 3)
	for i := 0; i < 5; i++ {
		mustWrite(t, e, byte(i))
	}
	st := e.Stats()
	if st.Written != 5 || st.Overwritten != 2 || st.Retained != 3 {
		t.Fatalf("stats = %+v", st)
	}
	c := e.NewCursor()
	if got := drain(t, c, 0); !bytes.Equal(got, []byte{2, 3, 4}) {
		t.Fatalf("delivered %v, want [2 3 4]", got)
	}
	if got := drain(t, c, 0); len(got) != 0 {
		t.Fatalf("second drain delivered %v", got)
	}
}

func TestCursorSkipAccounting(t *testing.T) {
	e := newElem(t, 2)
	c := e.NewCursor()
	for i := 0; i < 6; i++ {
		mustWrite(t, e, byte(i))
	}
	if got := drain(t, c, 0); !bytes.Equal(got, []byte{4, 5}) {
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
	e := newElem(t, 2)
	c := e.NewCursor()
	if r := c.Rate(); r != 1 {
		t.Fatalf("Rate with no traffic = %v, want 1", r)
	}
}

func TestCursorAtEndSkipsHistory(t *testing.T) {
	e := newElem(t, 8)
	mustWrite(t, e, 1)
	mustWrite(t, e, 2)
	c := e.NewCursorAtEnd()
	if got := drain(t, c, 0); len(got) != 0 {
		t.Fatalf("history delivered: %v", got)
	}
	mustWrite(t, e, 3)
	if got := drain(t, c, 0); !bytes.Equal(got, []byte{3}) {
		t.Fatalf("got %v, want tuple 3", got)
	}
	if c.Skipped() != 0 {
		t.Fatalf("Skipped = %d, want 0 (history skipped before cursor start does not count)", c.Skipped())
	}
}

func TestCloseDrainsRetainedThenErrClosed(t *testing.T) {
	e := newElem(t, 4)
	mustWrite(t, e, 1)
	mustWrite(t, e, 2)
	e.Close()
	if _, err := e.WriteCopy([]byte{3}); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
	c := e.NewCursor()
	if got := drain(t, c, 0); !bytes.Equal(got, []byte{1, 2}) {
		t.Fatalf("drain after close = %v, want [1 2]", got)
	}
	if got := drain(t, c, 0); len(got) != 0 {
		t.Fatalf("drained and closed, yet delivered %v", got)
	}
	if st := e.Stats(); st.Written != 2 {
		t.Fatalf("refused write counted: %+v", st)
	}
	if !e.Closed() {
		t.Fatal("Closed() = false")
	}
}

func TestLatest(t *testing.T) {
	e := newElem(t, 2)
	if got, err := e.Latest([]byte{9}); !errors.Is(err, ErrEmpty) || !bytes.Equal(got, []byte{9}) {
		t.Fatalf("Latest empty: %v %v", got, err)
	}
	mustWrite(t, e, 1)
	mustWrite(t, e, 2)
	mustWrite(t, e, 3)
	// The newest record is appended to what the caller already holds.
	got, err := e.Latest([]byte{9})
	if err != nil || !bytes.Equal(got, []byte{9, 3}) {
		t.Fatalf("Latest = %v %v, want [9 3]", got, err)
	}
	// It is a copy: a later write does not reach it.
	mustWrite(t, e, 4)
	mustWrite(t, e, 5)
	if got[1] != 3 {
		t.Fatalf("returned record mutated by overwrite: %v", got)
	}
	e.Close()
	// Latest still returns retained newest after close.
	if got, err = e.Latest(nil); err != nil || !bytes.Equal(got, []byte{5}) {
		t.Fatalf("Latest after close = %v %v", got, err)
	}
}

func TestLatestClosedEmpty(t *testing.T) {
	e := newElem(t, 2)
	e.Close()
	if _, err := e.Latest(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

// TestDrainInto: a drain appends every retained unread record, oldest
// first, after whatever the destination already holds, and a second
// drain appends nothing.
func TestDrainInto(t *testing.T) {
	e := newElem(t, 8)
	for i := 0; i < 5; i++ {
		mustWrite(t, e, byte(i))
	}
	c := e.NewCursor()
	got, n, err := c.DrainBytesInto([]byte("hdr"), 0, 1)
	if err != nil || n != 5 || !bytes.Equal(got, []byte{'h', 'd', 'r', 0, 1, 2, 3, 4}) {
		t.Fatalf("drained %d records %v, %v", n, got, err)
	}
	if got, n, err = c.DrainBytesInto(got[:3], 0, 1); err != nil || n != 0 || string(got) != "hdr" {
		t.Fatalf("second drain returned %d records %v, %v", n, got, err)
	}
}

func TestLag(t *testing.T) {
	e := newElem(t, 4)
	c := e.NewCursor()
	if c.Lag() != 0 {
		t.Fatalf("lag = %d", c.Lag())
	}
	for i := 0; i < 3; i++ {
		mustWrite(t, e, 0)
	}
	if c.Lag() != 3 {
		t.Fatalf("lag = %d, want 3", c.Lag())
	}
	if got := drain(t, c, 1); len(got) != 1 {
		t.Fatalf("capped drain delivered %v", got)
	}
	if c.Lag() != 2 {
		t.Fatalf("lag = %d, want 2", c.Lag())
	}
	// Overflow: lag never exceeds capacity.
	for i := 0; i < 10; i++ {
		mustWrite(t, e, 0)
	}
	if c.Lag() != 4 {
		t.Fatalf("lag after overflow = %d, want 4", c.Lag())
	}
}

func TestMultipleCursorsIndependent(t *testing.T) {
	e := newElem(t, 8)
	c1 := e.NewCursor()
	c2 := e.NewCursor()
	for i := 0; i < 4; i++ {
		mustWrite(t, e, byte(i))
	}
	for i, c := range []*Cursor{c1, c2} {
		if got := drain(t, c, 0); !bytes.Equal(got, []byte{0, 1, 2, 3}) {
			t.Fatalf("cursor %d delivered %v", i, got)
		}
	}
}

// drainUntilClosed drains c block by block while writers run, handing fn
// each block, and returns once the element is closed and empty. Closed
// is sampled before the drain that finds nothing, so no record written
// before Close is missed.
func drainUntilClosed(t *testing.T, c *Cursor, fn func(block []byte)) {
	var buf []byte
	for {
		closed := c.e.Closed()
		var n int
		var err error
		if buf, n, err = c.DrainBytesInto(buf[:0], 0, 1); err != nil {
			t.Errorf("drain: %v", err)
			return
		}
		fn(buf)
		if n == 0 {
			if closed {
				return
			}
			runtime.Gosched()
		}
	}
}

func TestConcurrentWritersSingleReader(t *testing.T) {
	const writers, perWriter = 8, 500
	e := newElem(t, writers*perWriter) // big enough: no loss
	c := e.NewCursor()
	counts := make(map[byte]int)
	done := make(chan struct{})
	go func() {
		defer close(done)
		drainUntilClosed(t, c, func(block []byte) {
			for _, w := range block {
				counts[w]++
			}
		})
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := e.WriteCopy([]byte{byte(w)}); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	e.Close()
	<-done
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
	e := newElem(t, writes)
	var wg sync.WaitGroup
	totals := make([]uint64, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		c := e.NewCursor()
		go func(r int) {
			defer wg.Done()
			next := byte(0) // every block continues the stream where the last one stopped
			drainUntilClosed(t, c, func(block []byte) {
				for _, b := range block {
					if b != next {
						t.Errorf("reader %d: record %d out of order, want %d", r, b, next)
					}
					next++
				}
			})
			totals[r] = c.Read()
		}(r)
	}
	for i := 0; i < writes; i++ {
		mustWrite(t, e, byte(i))
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
		e := newElem(t, capacity)
		for i := 0; i < n; i++ {
			if _, err := e.WriteCopy([]byte{byte(i)}); err != nil {
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
		// Drained in blocks of at most seven, so the suffix is stitched
		// from several reads across the arena's wrap.
		for {
			block, k, err := c.DrainBytesInto(nil, 7, 1)
			if err != nil {
				return false
			}
			if k == 0 {
				break
			}
			for _, b := range block {
				if b != byte(want) {
					return false
				}
				want++
			}
		}
		return want == n && int(c.Read()) == st.Retained
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: read + skipped of a cursor created before any write equals
// total written, and read equals the records the drains handed over, for
// any interleaving of write bursts and capped or uncapped drains.
func TestQuickCursorAccounting(t *testing.T) {
	f := func(capRaw uint8, bursts []uint8) bool {
		capacity := int(capRaw%16) + 1
		e := newElem(t, capacity)
		c := e.NewCursor()
		var written, delivered uint64
		take := func(max int) {
			_, n, _ := c.DrainBytesInto(nil, max, 1)
			delivered += uint64(n)
		}
		for _, b := range bursts {
			for i := 0; i < int(b%32); i++ {
				e.WriteCopy([]byte{0})
				written++
			}
			if b%2 == 0 {
				take(int(b % 5))
			}
		}
		take(0)
		return c.Read() == delivered && delivered+c.Skipped() == written
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryCreateLookupRemove(t *testing.T) {
	r := NewRegistry()
	e, err := r.CreateFixed("a", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreateFixed("a", 4, 1); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if r.elems["a"] != e {
		t.Fatal("created element not registered")
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

func TestRegistryNames(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 5; i++ {
		if _, err := r.CreateFixed(fmt.Sprintf("e%d", i), 2, 1); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(r.Names()); n != 5 {
		t.Fatalf("Names() returned %d entries", n)
	}
}

func TestRegistryCreateBadCapacity(t *testing.T) {
	r := NewRegistry()
	if _, err := r.CreateFixed("bad", 0, 1); err == nil {
		t.Fatal("want error for capacity 0")
	}
	if _, err := r.CreateFixed("bad", 4, 0); err == nil {
		t.Fatal("want error for record size 0")
	}
	if len(r.Names()) != 0 {
		t.Fatalf("refused elements registered: %v", r.Names())
	}
}

// TestFixedElementCopySemantics pins the ownership rule: writes copy in
// (the caller's buffer is reusable immediately) and reads copy out (an
// overwrite of the arena slot never mutates a delivered payload).
func TestFixedElementCopySemantics(t *testing.T) {
	e, err := NewElementFixed("fixed", 2, 4)
	if err != nil {
		t.Fatal(err)
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
	first, _, err := c.DrainBytesInto(nil, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, []byte{1, 1, 1, 1}) {
		t.Fatalf("first record = %v", first)
	}
	// Overwrite the first record's arena slot (capacity 2: two more
	// writes lap it); a batch drained earlier must not change.
	e.WriteCopy([]byte{7, 7, 7, 7})
	e.WriteCopy([]byte{8, 8, 8, 8})
	if !bytes.Equal(first, []byte{1, 1, 1, 1}) {
		t.Fatalf("delivered payload mutated by overwrite: %v", first)
	}
	// Size guard, both ways; a refused write claims no sequence number.
	for _, bad := range [][]byte{{1, 2}, {1, 2, 3, 4, 5}, nil} {
		if _, err := e.WriteCopy(bad); !errors.Is(err, ErrRecordSize) {
			t.Fatalf("%d-byte record: %v, want ErrRecordSize", len(bad), err)
		}
	}
	if st := e.Stats(); st.Written != 4 {
		t.Fatalf("refused writes counted: %+v", st)
	}
}

// TestFixedElementDrainInto checks that a batch drained into a warm
// caller-owned buffer lands in that buffer, whole across the arena's
// wrap, and that the write-then-drain cycle then allocates nothing.
func TestFixedElementDrainInto(t *testing.T) {
	e, err := NewElementFixed("fixed", 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := e.NewCursor()
	rec := []byte{0, 0}
	batch := make([]byte, 0, 5*2)
	serial := byte(0)
	// Five records into eight slots: the window wraps on most cycles.
	if avg := testing.AllocsPerRun(50, func() {
		want := serial
		for i := 0; i < 5; i++ {
			rec[0], rec[1] = serial, serial
			serial++
			if _, err := e.WriteCopy(rec); err != nil {
				t.Fatal(err)
			}
		}
		out, n, err := c.DrainBytesInto(batch, 0, 2)
		if err != nil || n != 5 || &out[0] != &batch[:1][0] {
			t.Fatalf("drained %d records, %v; in place: %v", n, err, err == nil && &out[0] == &batch[:1][0])
		}
		for i := 0; i < n; i++ {
			if out[2*i] != want || out[2*i+1] != want {
				t.Fatalf("record %d = %v, want %d", i, out[2*i:2*i+2], want)
			}
			want++
		}
	}); avg != 0 {
		t.Fatalf("warm write+drain cycle allocates %.2f allocs/op", avg)
	}
}

// TestDrainBytesInto covers the batch cap and the record-size check.
func TestDrainBytesInto(t *testing.T) {
	e, _ := NewElementFixed("f", 16, 2)
	for i := byte(0); i < 6; i++ {
		e.WriteCopy([]byte{i, i})
	}
	c := e.NewCursor()
	buf, n, err := c.DrainBytesInto(nil, 4, 2)
	if err != nil || n != 4 || len(buf) != 8 {
		t.Fatalf("drain = %d records %d bytes, %v", n, len(buf), err)
	}
	for i := byte(0); i < 4; i++ {
		if buf[2*i] != i || buf[2*i+1] != i {
			t.Fatalf("bytes %v", buf)
		}
	}
	buf, n, err = c.DrainBytesInto(buf[:0], 0, 2)
	if err != nil || n != 2 || len(buf) != 4 {
		t.Fatalf("second drain = %d records, %v", n, err)
	}
	if c.Read() != 6 {
		t.Fatalf("cursor read %d", c.Read())
	}
	// Record-size mismatch: the whole drain is refused and nothing is
	// consumed, so a reader asking for the right size still gets it.
	f, _ := NewElementFixed("f2", 4, 2)
	f.WriteCopy([]byte{1, 1})
	cur := f.NewCursor()
	if _, n, err := cur.DrainBytesInto(nil, 0, 3); !errors.Is(err, ErrRecordSize) || n != 0 {
		t.Fatalf("record-size mismatch: %d records, %v", n, err)
	}
	if buf, n, err := cur.DrainBytesInto(nil, 0, 2); err != nil || n != 1 || !bytes.Equal(buf, []byte{1, 1}) || cur.Read() != 1 {
		t.Fatalf("after the refused drain: %d records %v, %v; read %d", n, buf, err, cur.Read())
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
	e, err := NewElementFixed("b", 4096, 28)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 28)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.WriteCopy(data)
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
