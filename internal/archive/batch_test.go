package archive

import (
	"os"
	"runtime"
	"sync"
	"testing"

	"eventspace/internal/collect"
	"eventspace/internal/paths"
)

// fieldMasks is every projection worth telling apart: nothing, each
// column alone, End without Start (latency decode pulls Start in), and
// everything.
var fieldMasks = []Columns{0, ColECID, ColOp, ColRet, ColSeq, ColStart, ColEnd, ColECID | ColEnd, ColOp | ColRet | ColSeq, AllColumns}

// TestScanBatchesMatchesScan: under every filter and projection, the
// batches concatenate to the tuples Scan streams — equal on the masked
// fields and on the ones the filter reads — with the same stats, and a
// callback that stops early stops Scan's count at the tuple it saw.
func TestScanBatchesMatchesScan(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(smallOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	writeCorpus(t, w, 200, 3)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		{},
		{ECIDs: []uint32{2}},
		{Ops: []paths.OpKind{paths.OpRead}, MinStamp: 1300},
		{ECIDs: []uint32{1, 3}, MinStamp: 1500, MaxStamp: 2200},
	}
	for qi, q := range queries {
		want, wantStats, err := r.Select(q)
		if err != nil || len(want) == 0 {
			t.Fatalf("query %d: %d tuples, %v", qi, len(want), err)
		}
		for _, cols := range fieldMasks {
			var got []collect.TraceTuple
			stats, err := r.ScanBatches(nil, q, cols, func(batch []collect.TraceTuple) bool {
				if len(batch) == 0 {
					t.Fatal("empty batch delivered")
				}
				got = append(got, batch...)
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if stats != wantStats {
				t.Fatalf("query %d mask %06b: stats %+v, Scan's %+v", qi, cols, stats, wantStats)
			}
			if len(got) != len(want) {
				t.Fatalf("query %d mask %06b: %d tuples, want %d", qi, cols, len(got), len(want))
			}
			for i := range want {
				for c := 0; c < numColumns; c++ {
					if (cols|q.columns())&(1<<c) != 0 && colValue(&got[i], c) != colValue(&want[i], c) {
						t.Fatalf("query %d mask %06b: tuple %d %s = %d, want %d", qi, cols, i, colName[c],
							colValue(&got[i], c), colValue(&want[i], c))
					}
				}
			}
		}
		// Stop inside a block, at its last tuple, and inside a later one.
		for _, stopAt := range []int{1, 3, 8, 11, len(want)} {
			if stopAt > len(want) {
				continue
			}
			seen := 0
			stats, err := r.Scan(q, func(collect.TraceTuple) bool {
				seen++
				return seen < stopAt
			})
			if err != nil || stats.TuplesMatched != uint64(stopAt) {
				t.Fatalf("query %d: stopped after %d tuples, stats count %d (%v)", qi, stopAt, stats.TuplesMatched, err)
			}
		}
	}
}

// TestMaskedDecodeTearsLikeFull flips one byte in each of the six
// column payloads of a middle block in turn: whatever the projection,
// the scan stops where the full scan stops — same blocks and tuples
// scanned, same tear count — because every column is checksummed even
// when it is not decoded.
func TestMaskedDecodeTearsLikeFull(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(Options{Dir: dir, BlockTuples: 8})
	if err != nil {
		t.Fatal(err)
	}
	writeCorpus(t, w, 40, 3) // 5 blocks in one segment
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("listSegments: %v %v", segs, err)
	}
	pristine, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the third block's column payloads inside the image.
	off := int64(segmentHeaderSize)
	var third columnarFrame
	for b := 0; b < 3; b++ {
		f, ok := frameColumnarBlock(pristine[off:])
		if !ok {
			t.Fatalf("block %d does not frame", b)
		}
		third = f
		if b < 2 {
			off += f.size
		}
	}
	payload := off + v2BlockHeaderSize + v2DirSize
	for c := 0; c < numColumns; c++ {
		if len(third.col[c]) == 0 {
			t.Fatalf("%s column has no payload to damage", colName[c])
		}
		img := append([]byte(nil), pristine...)
		img[payload+int64(len(third.col[c]))/2] ^= 0x21
		payload += int64(len(third.col[c]))
		if err := os.WriteFile(segs[0].path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		full, err := r.Scan(Query{}, func(collect.TraceTuple) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		if full.BlocksScanned != 2 || full.TuplesScanned != 16 || full.TornSegments != 1 {
			t.Fatalf("%s column damaged: full scan %+v, want 2 blocks, 16 tuples, 1 tear", colName[c], full)
		}
		for _, cols := range fieldMasks {
			got, err := r.ScanBatches(nil, Query{}, cols, func([]collect.TraceTuple) bool { return true })
			if err != nil {
				t.Fatal(err)
			}
			if got != full {
				t.Fatalf("%s column damaged, mask %06b: %+v, full scan %+v", colName[c], cols, got, full)
			}
		}
	}
}

// TestIndexStampRangeIgnoresControlPayload is ROADMAP 3a's regression:
// alert tuples carry their query hash in End, and a segment index that
// took its upper stamp from End claimed to reach the hash — so no
// stamp-range query could skip a segment holding an alert. Indexed by
// Start, the same archive with and without interleaved alerts skips the
// same segments.
func TestIndexStampRangeIgnoresControlPayload(t *testing.T) {
	write := func(alerts bool) *Reader {
		dir := t.TempDir()
		w, err := Create(Options{Dir: dir, SegmentBytes: 300, BlockTuples: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 120; i++ {
			start := int64(1000 + 10*i)
			batch := []collect.TraceTuple{tuple(uint32(1+i%3), uint32(i), start, start+5)}
			if alerts && i%4 == 3 {
				batch = append(batch, collect.EncodeAlert(collect.AlertTuple{
					QueryHash: 0x5353_5353_5353_5353, Group: 1, Seq: uint32(i / 4), At: start,
				}))
			}
			// One data tuple per block and the alert in a block of its
			// own keep the two archives' segment boundaries comparable.
			if err := w.Append(batch[:1]); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if len(batch) > 1 {
				if err := w.Append(batch[1:]); err != nil {
					t.Fatal(err)
				}
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	plain, alerted := write(false), write(true)
	for _, s := range alerted.Segments() {
		if s.Index.MaxStamp > 1000+10*120 {
			t.Fatalf("segment %d claims stamps up to %d: a control tuple's payload leaked into the index", s.ID, s.Index.MaxStamp)
		}
	}
	q := Query{MinStamp: 1900, MaxStamp: 1990}
	count := func(r *Reader) (data int, stats ScanStats) {
		stats, err := r.Scan(q, func(tu collect.TraceTuple) bool {
			if tu.ECID != collect.ControlECID {
				data++
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return data, stats
	}
	wantData, plainStats := count(plain)
	gotData, alertStats := count(alerted)
	if gotData != wantData || wantData != 10 {
		t.Fatalf("data tuples in range: %d with alerts, %d without, want 10", gotData, wantData)
	}
	skipShare := func(s ScanStats) float64 { return float64(s.SegmentsSkipped) / float64(s.Segments) }
	if plainStats.SegmentsSkipped == 0 || alertStats.SegmentsScanned > plainStats.SegmentsScanned+1 ||
		skipShare(alertStats) < skipShare(plainStats)-0.05 {
		t.Fatalf("alerts cost the pushdown its skips: %+v with alerts, %+v without", alertStats, plainStats)
	}
}

// TestScanSteadyStateAllocs is the read side's allocation gate: a warm
// full scan reads every segment into the reader's one image buffer and
// decodes into its one batch, so what it allocates is a constant (a
// file handle per segment), not a function of the archive's size.
func TestScanSteadyStateAllocs(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(Options{Dir: dir, SegmentBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]collect.TraceTuple, 4096)
	for round := 0; round < 60; round++ {
		for i := range batch {
			n := round*len(batch) + i
			batch[i] = tuple(uint32(1+i%61), uint32(n), int64(n)*100, int64(n)*100+70)
		}
		if err := w.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	var bytes int64
	for _, s := range r.Segments() {
		bytes += s.Bytes
	}
	if len(r.Segments()) < 4 || bytes < 1<<20 {
		t.Fatalf("fixture too small to tell: %d segments, %d bytes", len(r.Segments()), bytes)
	}
	var sum int64
	scan := func() {
		stats, err := r.Scan(Query{}, func(tu collect.TraceTuple) bool {
			sum += tu.End - tu.Start
			return true
		})
		if err != nil || stats.TuplesMatched != r.Tuples() {
			t.Fatalf("scan matched %d of %d tuples: %v", stats.TuplesMatched, r.Tuples(), err)
		}
	}
	scan()       // warm: the reader's image buffer grows to the largest segment
	runtime.GC() // a collection between scans must not cost the buffer
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	scan()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if got > 64<<10 {
		t.Fatalf("a warm scan of %d bytes in %d segments allocated %d bytes, want at most 64 KB", bytes, len(r.Segments()), got)
	}
}

// TestScansShareAReader: the reader's scan buffers are taken for the
// length of one scan, so scans of one Reader that overlap — from several
// goroutines, or started inside a callback — each work in their own and
// all see the whole archive.
func TestScansShareAReader(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(smallOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	corpus := writeCorpus(t, w, 300, 3)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	same := func(got []collect.TraceTuple) bool {
		return len(got) == len(corpus) && got[0] == corpus[0] && got[len(got)-1] == corpus[len(corpus)-1]
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got, _, err := r.Select(Query{}); err != nil || !same(got) {
					t.Errorf("concurrent scan returned %d of %d tuples: %v", len(got), len(corpus), err)
					return
				}
			}
		}()
	}
	wg.Wait()

	var outer []collect.TraceTuple
	nested := 0
	_, err = r.Scan(Query{}, func(tu collect.TraceTuple) bool {
		if len(outer)%100 == 50 {
			if got, _, err := r.Select(Query{}); err != nil || !same(got) {
				t.Fatalf("nested scan returned %d of %d tuples: %v", len(got), len(corpus), err)
			}
			nested++
		}
		outer = append(outer, tu)
		return true
	})
	if err != nil || nested != 3 {
		t.Fatalf("outer scan: %d nested scans, %v", nested, err)
	}
	sameTuples(t, outer, corpus)
}
