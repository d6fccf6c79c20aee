package archive

import (
	"math"
	"testing"

	"eventspace/internal/collect"
)

// captureCursor writes n tuples, flushes, and returns the durable
// cursor at that point.
func captureCursor(t *testing.T, w *Writer, n, offset int) Cursor {
	t.Helper()
	for i := 0; i < n; i++ {
		j := offset + i
		tu := tuple(uint32(1+j%3), uint32(j), int64(1000+10*j), int64(1005+10*j))
		if err := w.Append([]collect.TraceTuple{tu}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return w.Position()
}

// TestScanFromMatchesSuffix is the cursor contract: ScanFrom(cursor)
// streams exactly the tuples archived after the cursor, identical to
// the tail of a full Scan, while reading none of the covered segments.
func TestScanFromMatchesSuffix(t *testing.T) {
	t.Run("columnar", func(t *testing.T) {
		dir := t.TempDir()
		w, err := Create(smallOpts(dir))
		if err != nil {
			t.Fatal(err)
		}
		// 100 tuples before the cursor (several rotations at 600 B
		// segments), 57 after, cursor mid-segment by construction.
		cur := captureCursor(t, w, 100, 0)
		captureCursor(t, w, 57, 100)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if cur.Tuples != 100 {
			t.Fatalf("cursor covers %d tuples, want 100", cur.Tuples)
		}

		r, err := OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		full, _, err := r.Select(Query{})
		if err != nil {
			t.Fatal(err)
		}
		var got []collect.TraceTuple
		stats, err := r.ScanFrom(cur, Query{}, func(t collect.TraceTuple) bool {
			got = append(got, t)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		sameTuples(t, got, full[100:])
		if stats.TuplesSkipped != 100 {
			t.Fatalf("TuplesSkipped = %d, want 100", stats.TuplesSkipped)
		}
		if stats.SegmentsSkipped == 0 {
			t.Fatal("no covered segment was skipped wholesale")
		}
		if stats.BytesSkipped == 0 {
			t.Fatal("BytesSkipped = 0; covered segments were read")
		}
		if stats.BytesScanned >= uint64(totalBytes(r)) {
			t.Fatalf("ScanFrom read the whole archive (%d of %d bytes)", stats.BytesScanned, totalBytes(r))
		}
		// The batch walk from the same cursor is the same suffix.
		var batched []collect.TraceTuple
		bstats, err := r.ScanBatches(&cur, Query{}, AllColumns, func(b []collect.TraceTuple) bool {
			batched = append(batched, b...)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		sameTuples(t, batched, full[100:])
		if bstats != stats {
			t.Fatalf("ScanBatches from the cursor: stats %+v, ScanFrom's %+v", bstats, stats)
		}

		// Filters compose with the cursor.
		var filtered []collect.TraceTuple
		if _, err := r.ScanFrom(cur, Query{ECIDs: []uint32{2}}, func(t collect.TraceTuple) bool {
			filtered = append(filtered, t)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		var want []collect.TraceTuple
		for _, tu := range full[100:] {
			if tu.ECID == 2 {
				want = append(want, tu)
			}
		}
		sameTuples(t, filtered, want)
	})
}

func totalBytes(r *Reader) int64 {
	var n int64
	for _, s := range r.segs {
		n += s.Bytes
	}
	return n
}

// TestScanFromSurvivesReopen verifies cursors stay valid across a
// crash-restart cycle: a cursor captured before the restart still
// replays exactly the suffix, because reopen restores the
// directory-lifetime tuple basis.
func TestScanFromSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(smallOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	cur := captureCursor(t, w, 60, 0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Create(smallOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	cur2 := captureCursor(t, w2, 40, 60)
	if cur2.Tuples != 100 {
		t.Fatalf("post-reopen cursor covers %d tuples, want 100 (lifetime basis lost)", cur2.Tuples)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := r.Select(Query{})
	if err != nil {
		t.Fatal(err)
	}
	var got []collect.TraceTuple
	if _, err := r.ScanFrom(cur, Query{}, func(t collect.TraceTuple) bool {
		got = append(got, t)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sameTuples(t, got, full[60:])
}

// TestReopenCountsNegativeStamps pins the recovered index to the block
// frames: the writer accepts negative stamps, so reopening an unsealed
// segment that holds them must count them — the writer's position and
// the sealed header are built from that count, and a cursor's frame
// skip lands on the wrong tuple if it is short.
func TestReopenCountsNegativeStamps(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, BlockTuples: 4} // one segment, left unsealed
	w, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	early := []collect.TraceTuple{
		tuple(1, 0, -1, 5), tuple(2, 1, math.MinInt64, 0), tuple(1, 2, -7, -3),
	}
	if err := w.Append(early); err != nil {
		t.Fatal(err)
	}
	cur := captureCursor(t, w, 6, 3) // crash here: no Close
	if cur.Tuples != 9 {
		t.Fatalf("cursor covers %d tuples, want 9", cur.Tuples)
	}

	w2, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	if pos := w2.Position(); pos != cur {
		t.Fatalf("reopened position %+v, want %+v (the frames on disk)", pos, cur)
	}
	captureCursor(t, w2, 5, 9)
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Tuples() != 14 {
		t.Fatalf("sealed header counts %d tuples, want 14", r.Tuples())
	}
	full, _, err := r.Select(Query{})
	if err != nil {
		t.Fatal(err)
	}
	sameTuples(t, full[:3], early)
	var got []collect.TraceTuple
	if _, err := r.ScanFrom(cur, Query{}, func(t collect.TraceTuple) bool {
		got = append(got, t)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sameTuples(t, got, full[9:])
}

// TestZeroQueryKeepsNegativeStamps: a stamp bound at or below zero is no
// bound, so the zero Query — and any query whose only lower bound is not
// positive — returns every tuple the writer accepted, negative Starts
// included, as many as the reader counts.
func TestZeroQueryKeepsNegativeStamps(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := []collect.TraceTuple{tuple(1, 0, -5, 0), tuple(2, 1, 10, 15)}
	if err := w.Append(want); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{{}, {MinStamp: -3}, {MaxStamp: 20}, {ECIDs: []uint32{1, 2}}} {
		got, stats, err := r.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(len(got)) != r.Tuples() || stats.TuplesMatched != r.Tuples() {
			t.Fatalf("%+v: %d tuples, %d matched, the reader counts %d", q, len(got), stats.TuplesMatched, r.Tuples())
		}
		sameTuples(t, got, want)
	}
}

// TestScanFromRejectsInvalidCursors pins the validation ladder: a
// cursor for a missing segment, a mismatched global position, or a
// cursor claiming more tuples than its segment holds must all fail
// loudly so recovery falls back instead of diverging.
func TestScanFromRejectsInvalidCursors(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(smallOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	cur := captureCursor(t, w, 50, 0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	nop := func(collect.TraceTuple) bool { return true }

	missing := cur
	missing.Segment += 100
	if _, err := r.ScanFrom(missing, Query{}, nop); err == nil {
		t.Fatal("cursor for a missing segment accepted")
	}

	drifted := cur
	drifted.Tuples += 7
	if _, err := r.ScanFrom(drifted, Query{}, nop); err == nil {
		t.Fatal("cursor with mismatched global position accepted")
	}

	greedy := cur
	greedy.SegTuples += 1000
	greedy.Tuples += 1000
	if _, err := r.ScanFrom(greedy, Query{}, nop); err == nil {
		t.Fatal("cursor claiming uncovered tuples accepted")
	}
}

// TestScanFromAfterRetention verifies a cursor whose covered segments
// were retention-deleted is rejected (the prefix sum no longer proves
// the position) rather than replaying from the wrong offset.
func TestScanFromAfterRetention(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts(dir)
	w, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	cur := captureCursor(t, w, 40, 0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with a tight retention cap and write enough to delete the
	// cursor's covered segments.
	opts.MaxTotalBytes = 1500
	w2, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	captureCursor(t, w2, 200, 40)
	if w2.Stats().RetentionDeletes == 0 {
		t.Fatal("retention never deleted a segment; cap too loose for the test")
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	nop := func(collect.TraceTuple) bool { return true }
	if _, err := r.ScanFrom(cur, Query{}, nop); err == nil {
		t.Fatal("cursor over retention-deleted segments accepted")
	}
}

// TestPositionCountsOnlyDurable verifies Position excludes buffered
// tuples: a checkpoint stamped with it owns exactly the bytes on disk.
func TestPositionCountsOnlyDurable(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(smallOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	// 3 tuples buffer below the 8-tuple block size: nothing durable.
	for i := 0; i < 3; i++ {
		if err := w.Append([]collect.TraceTuple{tuple(1, uint32(i), int64(i), int64(i+1))}); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Position(); got.Tuples != 0 {
		t.Fatalf("Position covers %d buffered tuples, want 0", got.Tuples)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := w.Position(); got.Tuples != 3 {
		t.Fatalf("Position after Flush = %d, want 3", got.Tuples)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
