package archive

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"eventspace/internal/collect"
)

// crashOpts arms one site on a small archive.
func crashOpts(dir string, seed uint64, site CrashSite, count int) Options {
	o := smallOpts(dir)
	o.CrashPoints = &CrashPoints{Seed: seed, Specs: []CrashSpec{{Site: site, Count: count}}}
	return o
}

// runUntilCrash appends tuples one at a time until the writer reports
// the injected crash, returning how many tuples were accepted before
// it. Fails the test if the crash never fires within n appends.
func runUntilCrash(t *testing.T, w *Writer, n int) int {
	t.Helper()
	for i := 0; i < n; i++ {
		tu := tuple(uint32(1+i%3), uint32(i), int64(1000+10*i), int64(1005+10*i))
		if err := w.Append([]collect.TraceTuple{tu}); err != nil {
			if !errors.Is(err, ErrInjectedCrash) {
				t.Fatalf("append %d: %v", i, err)
			}
			return i
		}
	}
	t.Fatalf("crash never fired within %d appends", n)
	return 0
}

// TestCrashInjectionPrefixProperty drives every write-path crash site
// on several seeds, then proves the recovery invariant: reopening the
// directory yields exactly a prefix of the appended stream — never a
// divergent or reordered one — and the reopened writer's cursor agrees
// with what the reader can prove.
func TestCrashInjectionPrefixProperty(t *testing.T) {
	sites := []CrashSite{CrashBlockFlush, CrashSeal, CrashSealIndex, CrashRotate}
	seeds := []uint64{1, 2, 3}
	for _, site := range sites {
		for _, seed := range seeds {
			t.Run("columnar/"+site.String()+"/"+string('0'+rune(seed)), func(t *testing.T) {
				dir := t.TempDir()
				// Fire on the second occurrence so the first block /
				// seal / rotation completes normally first.
				w, err := Create(crashOpts(dir, seed, site, 2))
				if err != nil {
					t.Fatal(err)
				}
				accepted := runUntilCrash(t, w, 4096)
				if accepted == 0 {
					t.Fatal("crash fired before any append")
				}
				// The dead writer stays dead.
				if err := w.Append([]collect.TraceTuple{tuple(9, 9, 9, 9)}); !errors.Is(err, ErrInjectedCrash) {
					t.Fatalf("append after crash = %v, want ErrInjectedCrash", err)
				}
				if err := w.Close(); err != nil && !errors.Is(err, ErrInjectedCrash) {
					t.Fatalf("close after crash: %v", err)
				}

				// Reopen crash-safely and prove the prefix property.
				w2, err := Create(smallOpts(dir))
				if err != nil {
					t.Fatalf("reopen after %v crash: %v", site, err)
				}
				cur := w2.Position()
				if err := w2.Close(); err != nil {
					t.Fatal(err)
				}
				// The append whose flush crashed returns an error but
				// may have persisted its block first, so the durable
				// stream can be one tuple longer than the accepted
				// count — never more.
				got, _ := selectAll(t, dir, Query{})
				if len(got) > accepted+1 {
					t.Fatalf("recovered %d tuples from %d accepted appends", len(got), accepted)
				}
				want := make([]collect.TraceTuple, len(got))
				for i := range want {
					want[i] = tuple(uint32(1+i%3), uint32(i), int64(1000+10*i), int64(1005+10*i))
				}
				sameTuples(t, got, want)
				if cur.Tuples != uint64(len(got)) {
					t.Fatalf("reopened cursor covers %d tuples, archive holds %d", cur.Tuples, len(got))
				}
			})
		}
	}
}

// TestCrashBlockFlushLeavesTornTail pins the torn-tail mechanics down:
// a mid-flush crash leaves a partial block the reader ignores and the
// reopen truncates, with the truncation accounted in the stats.
func TestCrashBlockFlushLeavesTornTail(t *testing.T) {
	t.Run("columnar", func(t *testing.T) {
		dir := t.TempDir()
		// Seed 7 tears mid-block (keep fraction strictly inside (0,1)
		// is guaranteed by tearLen only when the fraction is nonzero;
		// the prefix property holds either way, this test just wants
		// some torn bytes).
		w, err := Create(crashOpts(dir, 7, CrashBlockFlush, 2))
		if err != nil {
			t.Fatal(err)
		}
		accepted := runUntilCrash(t, w, 4096)
		w.Close()

		r, err := OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		if int(r.Tuples()) >= accepted {
			t.Fatalf("reader sees %d tuples, crash should have lost the in-flight block of %d appended", r.Tuples(), accepted)
		}
		segs := r.Segments()
		last := segs[len(segs)-1]
		if !last.Torn {
			t.Fatal("newest segment not marked torn after mid-flush crash")
		}
		if last.TornBytes <= 0 {
			t.Fatalf("TornBytes = %d, want > 0", last.TornBytes)
		}

		w2, err := Create(smallOpts(dir))
		if err != nil {
			t.Fatal(err)
		}
		st := w2.Stats()
		if st.TornTruncations == 0 {
			t.Fatal("reopen did not truncate the torn tail")
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCrashRotateDropsHeaderlessFile verifies the rotate crash leaves a
// header-less empty next segment, that the reader tolerates it but
// surfaces it through Close, and that reopen removes it and reuses the
// id.
func TestCrashRotateDropsHeaderlessFile(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(crashOpts(dir, 1, CrashRotate, 1))
	if err != nil {
		t.Fatal(err)
	}
	runUntilCrash(t, w, 4096)
	w.Close()

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := segs[len(segs)-1]
	if last.size != 0 {
		t.Fatalf("headerless next segment has %d bytes, want 0", last.size)
	}

	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err == nil {
		t.Fatal("reader Close reported nil after skipping a header-less file")
	}
	if got := r.SkippedFiles(); len(got) != 1 || got[0] != last.path {
		t.Fatalf("SkippedFiles = %v, want [%s]", got, last.path)
	}

	w2, err := Create(smallOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := w2.Stats().ActiveSegment; got != last.id {
		t.Fatalf("reopen activated segment %d, want the reused id %d", got, last.id)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, segmentFileName(last.id))); err != nil {
		t.Fatalf("reused segment file: %v", err)
	}
}

// TestCrashSealKeepsUnsealedHeader verifies the seal-site crash leaves
// the segment with its provisional header and every flushed block, and
// that a clean reopen continues it.
func TestCrashSealKeepsUnsealedHeader(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(crashOpts(dir, 1, CrashSeal, 1))
	if err != nil {
		t.Fatal(err)
	}
	accepted := runUntilCrash(t, w, 4096)
	w.Close()

	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := r.Segments()
	last := segs[len(segs)-1]
	if last.Sealed {
		t.Fatal("segment sealed despite the seal-site crash")
	}
	if last.Torn {
		t.Fatal("seal-site crash must not tear blocks")
	}
	// Every flushed block survived; the rotation-triggering append's
	// block was flushed before the seal crashed, so the durable count
	// can exceed the accepted count by exactly that one tuple.
	if int(r.Tuples()) > accepted+1 {
		t.Fatalf("reader sees %d tuples, only %d appended", r.Tuples(), accepted)
	}
	if r.Tuples() == 0 {
		t.Fatal("no tuples survived the seal-site crash")
	}
}

// TestCrashSealIndexCutAsTornTail: a crash between the block index
// write and the header rewrite leaves an unsealed segment ending in the
// whole index. The index never frames as a block, so the reader reports
// exactly its bytes as a torn tail, and a reopen truncates them and
// continues the segment, which its next seal indexes afresh.
func TestCrashSealIndexCutAsTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(crashOpts(dir, 1, CrashSealIndex, 1))
	if err != nil {
		t.Fatal(err)
	}
	runUntilCrash(t, w, 4096)
	w.Close()

	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := r.Segments()
	last := segs[len(segs)-1]
	if wantTorn := 12 + blockZoneSize*int64(last.Index.Blocks); last.Sealed || !last.Torn || last.TornBytes != wantTorn {
		t.Fatalf("crashed segment: sealed %v, torn %v with %d bytes; want unsealed with the %d index bytes torn",
			last.Sealed, last.Torn, last.TornBytes, wantTorn)
	}
	before, _, err := r.Select(Query{})
	if err != nil {
		t.Fatal(err)
	}

	w2, err := Create(smallOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	more := []collect.TraceTuple{tuple(9, 1, 900_000, 900_005)}
	if err := w2.Append(more); err != nil {
		t.Fatal(err)
	}
	if st := w2.Stats(); st.TornTruncations != 1 || st.ActiveSegment != last.ID {
		t.Fatalf("reopen after the index write: %+v", st)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r2.Segments() {
		if !s.Sealed || s.IndexBytes == 0 || s.Torn {
			t.Fatalf("segment %d after the resealing close: %+v", s.ID, s)
		}
	}
	after, _, err := r2.Select(Query{})
	if err != nil {
		t.Fatal(err)
	}
	sameTuples(t, after, append(before, more...))
	// A cursor into the resealed segment plans from its new index.
	cur := Cursor{Tuples: r2.Tuples() - 1, Segment: last.ID, SegTuples: last.Index.Tuples}
	want, wantStats, err := referenceScan(r2, &cur, Query{})
	if err != nil {
		t.Fatal(err)
	}
	var got []collect.TraceTuple
	stats, err := r2.ScanFrom(cur, Query{}, func(tu collect.TraceTuple) bool { got = append(got, tu); return true })
	if err != nil || stats != wantStats {
		t.Fatalf("ScanFrom: %+v, %v; reference %+v", stats, err, wantStats)
	}
	sameTuples(t, got, want)
	sameTuples(t, got, more)
}

// TestCrashPointsFireOnce verifies the schedule bookkeeping: counts are
// honoured, each site fires at most once, and nil plans never fire.
func TestCrashPointsFireOnce(t *testing.T) {
	c := &CrashPoints{Seed: 42, Specs: []CrashSpec{{Site: CrashSeal, Count: 3}}}
	for i := 1; i <= 5; i++ {
		_, fire := c.hit(CrashSeal)
		if want := i == 3; fire != want {
			t.Fatalf("hit %d: fire = %v, want %v", i, fire, want)
		}
	}
	if got := c.Fired(); len(got) != 1 || got[0] != CrashSeal {
		t.Fatalf("Fired = %v", got)
	}
	if _, fire := c.hit(CrashBlockFlush); fire {
		t.Fatal("unarmed site fired")
	}
	var nilPlan *CrashPoints
	if _, fire := nilPlan.hit(CrashSeal); fire {
		t.Fatal("nil plan fired")
	}
	if nilPlan.Fired() != nil {
		t.Fatal("nil plan reports fired sites")
	}
}
