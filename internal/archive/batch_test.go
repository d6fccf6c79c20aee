package archive

import (
	"math"
	"math/rand"
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

// selectCorpus writes the archive the scans are held to the reference
// over: several segments of blocks three collectors wide, the first
// stamps negative, one block with more than 256 distinct ECIDs and ops
// (so both columns are raw-coded), the Seq column of the second block
// and the Start column of the fourth damaged in the second segment, a
// damaged block index (its CRC fails) in the third, and a torn block at
// the end of the newest, unsealed segment.
func selectCorpus(t *testing.T, dir string) *Reader {
	t.Helper()
	w, err := Create(Options{Dir: dir, SegmentBytes: 4096, BlockTuples: 512})
	if err != nil {
		t.Fatal(err)
	}
	var seq uint32
	appendBlock := func(batch []collect.TraceTuple) {
		if err := w.Append(batch); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 40; round++ {
		var batch []collect.TraceTuple
		for c := 0; c < 3; c++ {
			ecid := uint32(1 + (round*3+c)%10)
			for i := 0; i < 12; i++ {
				start := int64(round)*10_000 + int64(c)*1_000 + int64(i)*50 - 25_000
				batch = append(batch, tuple(ecid, seq, start, start+300+int64(i)))
				seq++
			}
		}
		appendBlock(batch)
		if round == 20 {
			wide := make([]collect.TraceTuple, 300)
			for i := range wide {
				start := int64(round)*10_000 + int64(i)*20 - 25_000
				wide[i] = collect.TraceTuple{ECID: uint32(1 + i), Op: paths.OpKind(i), Seq: seq, Start: start, End: start + 90}
				seq++
			}
			appendBlock(wide)
		}
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 4 {
		t.Fatalf("listSegments: %d segments, %v", len(segs), err)
	}
	// Damage the Seq column of the second block of the second segment,
	// and the Start column of its fourth.
	img, err := os.ReadFile(segs[1].path)
	if err != nil {
		t.Fatal(err)
	}
	zones, ok := referenceZones(img)
	if !ok || len(zones) < 5 {
		t.Fatalf("second segment: %d zones, index whole %v", len(zones), ok)
	}
	for _, d := range []struct{ block, col int }{{1, colSeq}, {3, colStart}} {
		at := zones[d.block].at
		f, ok := frameColumnarBlock(img[at:])
		if !ok {
			t.Fatalf("second segment's block %d does not frame", d.block)
		}
		at += v2BlockHeaderSize + v2DirSize
		for c := 0; c < d.col; c++ {
			at += int64(len(f.col[c]))
		}
		img[at] ^= 0x10
	}
	if err := os.WriteFile(segs[1].path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	// Damage the third segment's block index: a flipped bit in a zone.
	if img, err = os.ReadFile(segs[2].path); err != nil {
		t.Fatal(err)
	}
	end, idxBytes := referenceBlocksEnd(img)
	if idxBytes == 0 {
		t.Fatal("third segment has no block index")
	}
	img[end+8] ^= 0x01
	if _, ok := referenceZones(img); ok {
		t.Fatal("a flipped index bit leaves the index whole")
	}
	if err := os.WriteFile(segs[2].path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	// The crash: the newest segment stays unsealed, a block torn behind it.
	last, err := os.OpenFile(segs[len(segs)-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var enc columnarEncoder
	torn := enc.encodeBlock([]collect.TraceTuple{tuple(3, seq, 500_000, 500_100), tuple(7, seq+1, 500_050, 500_200)})
	if _, err := last.Write(torn[:len(torn)-3]); err != nil {
		t.Fatal(err)
	}
	last.Close()
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestScanSelectMatchesReference holds the selective decode to the walk
// it replaced (referenceScan: every scanned block decoded whole, every
// row tested by match) under the filter matrix, over the whole archive
// and from cursors at block boundaries and inside blocks: the same
// tuples in the same order, the same ScanStats, the same failures.
func TestScanSelectMatchesReference(t *testing.T) {
	r := selectCorpus(t, t.TempDir())
	queries := []Query{
		{},
		{ECIDs: []uint32{3, 7}},
		{ECIDs: []uint32{3, 7}, MinStamp: 40_000, MaxStamp: 44_000},
		{ECIDs: []uint32{3, 7, 150}, MinStamp: 170_000},
		{Ops: []paths.OpKind{paths.OpRead}},
		{Ops: []paths.OpKind{paths.OpWrite, paths.OpKind(200)}, ECIDs: []uint32{2, 200}},
		{ECIDs: []uint32{2}, Ops: []paths.OpKind{paths.OpWrite}, MinStamp: 1},
		{MaxStamp: 30_000},
		{MinStamp: -20_000, MaxStamp: 1},
		{MinStamp: 100_000, MaxStamp: 101_000},
		{ECIDs: []uint32{999}},
	}
	// Cursors at every segment's start, inside its first block, at its
	// first block's end, past its damaged block and at its end.
	cursors := []*Cursor{nil}
	var prefix uint64
	for _, s := range r.Segments() {
		for _, in := range []uint64{0, 5, 36, 50, s.Index.Tuples} {
			if in <= s.Index.Tuples {
				cursors = append(cursors, &Cursor{Tuples: prefix + in, Segment: s.ID, SegTuples: in})
			}
		}
		prefix += s.Index.Tuples
	}
	var matched, skipped, torn, refused int
	for qi, q := range queries {
		for _, cur := range cursors {
			want, wantStats, wantErr := referenceScan(r, cur, q)
			var got []collect.TraceTuple
			keep := func(tu collect.TraceTuple) bool {
				got = append(got, tu)
				return true
			}
			var stats ScanStats
			var err error
			if cur == nil {
				stats, err = r.Scan(q, keep)
			} else {
				stats, err = r.ScanFrom(*cur, q, keep)
			}
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("query %d cursor %+v: error %v, reference %v", qi, cur, err, wantErr)
			}
			if err != nil {
				refused++
				continue
			}
			if stats != wantStats {
				t.Fatalf("query %d cursor %+v: stats %+v, reference %+v", qi, cur, stats, wantStats)
			}
			sameTuples(t, got, want)
			matched += len(got)
			skipped += int(stats.BlocksSkipped)
			torn += stats.TornSegments
		}
	}
	if matched == 0 || skipped == 0 || torn == 0 || refused == 0 {
		t.Fatalf("the matrix missed a case: %d matched, %d blocks skipped, %d tears, %d cursors refused", matched, skipped, torn, refused)
	}
}

// TestBlockIndexPrunesDamage pins what the block index changes about
// damage: a damaged block matters only to a scan that reads it. In the
// corpus's second segment, blocks 1 and 3 are damaged. A stamp window
// over block 2 reads the index and block 2 alone, and returns its rows,
// which a whole walk never reaches past block 1; a window over blocks 2
// and 3 reads block 3 too, and tears there. Over the third segment,
// whose index is damaged, the same kind of window reads the index and
// then the whole segment.
func TestBlockIndexPrunesDamage(t *testing.T) {
	r := selectCorpus(t, t.TempDir())
	segs := r.Segments()
	img, err := os.ReadFile(segs[1].Path)
	if err != nil {
		t.Fatal(err)
	}
	zones, _ := referenceZones(img)
	window := func(z0, z1 refZone) Query { return Query{MinStamp: z0.minStart, MaxStamp: z1.maxStart} }
	scan := func(q Query) ([]collect.TraceTuple, ScanStats) {
		t.Helper()
		got, stats, err := r.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		want, wantStats, err := referenceScan(r, nil, q)
		if err != nil || stats != wantStats {
			t.Fatalf("query %+v: stats %+v, reference %+v (%v)", q, stats, wantStats, err)
		}
		sameTuples(t, got, want)
		return got, stats
	}

	got, stats := scan(window(zones[2], zones[2]))
	if stats.TornSegments != 0 || uint64(len(got)) != zones[2].tuples {
		t.Fatalf("window over block 2: %d rows, %d tears; want block 2's %d rows, no tear", len(got), stats.TornSegments, zones[2].tuples)
	}
	if want := uint64(segs[1].IndexBytes + zones[2].size); stats.BytesScanned != want {
		t.Fatalf("window over block 2 read %d bytes, want the index and block 2: %d", stats.BytesScanned, want)
	}
	all, _ := scan(Query{})
	for _, tu := range all {
		if tu.Start >= zones[2].minStart && tu.Start <= zones[2].maxStart {
			t.Fatalf("a whole walk reached block 2 past damaged block 1: %+v", tu)
		}
	}
	got, stats = scan(window(zones[2], zones[3]))
	if stats.TornSegments != 1 || uint64(len(got)) != zones[2].tuples {
		t.Fatalf("window over blocks 2-3: %d rows, %d tears; want block 2's %d rows and a tear", len(got), stats.TornSegments, zones[2].tuples)
	}

	if img, err = os.ReadFile(segs[2].Path); err != nil {
		t.Fatal(err)
	}
	end, idxBytes := referenceBlocksEnd(img)
	tuples, err := scanSegment(img)
	if err != nil || idxBytes == 0 || len(tuples.Zones) < 3 {
		t.Fatalf("third segment: index %d bytes, %d blocks, %v", idxBytes, len(tuples.Zones), err)
	}
	z := tuples.Zones[1]
	_, stats = scan(Query{MinStamp: z.MinStamp, MaxStamp: z.MaxStamp})
	if want := uint64(idxBytes + segs[2].Bytes); stats.BytesScanned != want || end+idxBytes != segs[2].Bytes {
		t.Fatalf("window over a segment with a damaged index read %d bytes, want the index and the segment: %d", stats.BytesScanned, want)
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
// scan reads every segment — or, selective, a segment's block index and
// the blocks it leaves — into the reader's one scratch and decodes into
// its one batch, a selective one selecting rows in the decoder's one
// selection vector, so what it allocates is a constant (a file handle
// per segment), not a function of the archive's size.
// Both a full scan and a selective one (an ECID set and a stamp window)
// are held to it.
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
	selective := Query{ECIDs: []uint32{3, 7}, MinStamp: 10_000_000, MaxStamp: 14_000_000}
	var inWindow uint64
	for n := 100_000; n <= 140_000; n++ {
		if id := uint32(1 + n%len(batch)%61); id == 3 || id == 7 {
			inWindow++
		}
	}
	for _, c := range []struct {
		name string
		q    Query
		want uint64
	}{{"full", Query{}, r.Tuples()}, {"selective", selective, inWindow}} {
		var sum int64
		scan := func() {
			stats, err := r.Scan(c.q, func(tu collect.TraceTuple) bool {
				sum += tu.End - tu.Start
				return true
			})
			if err != nil || stats.TuplesMatched != c.want {
				t.Fatalf("%s scan matched %d tuples, want %d: %v", c.name, stats.TuplesMatched, c.want, err)
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
			t.Fatalf("a warm %s scan of %d bytes in %d segments allocated %d bytes, want at most 64 KB", c.name, bytes, len(r.Segments()), got)
		}
	}
}

// TestScanReadVolume is the read side's read-volume gate (make
// read-gates), a count of bytes and not a timing, on an archive of
// benchmark-shaped replies at the default segment and block sizes. A
// selective query — collectors 3 and 7 over a 4 ms window, stepped
// through 40 strata of the archive's span — reads at most 5 % of the
// bytes of the segments it does not skip. A cursor scan reads at most
// its suffix: the cursor segment's blocks that lie wholly past the
// cursor, one block more (the one the cursor falls in, or the first
// past it), that segment's block index, and the later segments.
func TestScanReadVolume(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const replies = 72
	rng := rand.New(rand.NewSource(4801))
	for k := 0; k < replies; k++ {
		if err := w.AppendRaw(encodeTuples(benchReply(rng, uint32(k*replyRunLen)))); err != nil {
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
	segs := r.Segments()
	if len(segs) < 3 || segs[0].Bytes < DefaultSegmentBytes {
		t.Fatalf("fixture too small to tell: %d segments, the first %d bytes", len(segs), segs[0].Bytes)
	}

	const window, strata = 4_000_000, 40
	stratum := (replies*replyRunLen*500_000 - window) / strata
	var worst float64
	for i := 0; i < strata; i++ {
		from := int64(1 + i*stratum)
		q := Query{ECIDs: []uint32{3, 7}, MinStamp: from, MaxStamp: from + window - 1}
		stats, err := r.Scan(q, func(collect.TraceTuple) bool { return true })
		if err != nil || stats.TuplesMatched == 0 {
			t.Fatalf("window %d: %d tuples matched, %v", i, stats.TuplesMatched, err)
		}
		var read int64
		for _, s := range segs {
			if s.Index.meets(&q) {
				read += s.Bytes
			}
		}
		share := float64(stats.BytesScanned) / float64(read)
		if share > 0.05 {
			t.Fatalf("window %d read %d of the %d bytes of the segments it scans (%.1f %%), want at most 5 %%", i, stats.BytesScanned, read, 100*share)
		}
		worst = max(worst, share)
	}
	t.Logf("the most a selective query read: %.2f %% of its segments' bytes", 100*worst)

	// Cursors in the first segment: at its start, inside its first
	// block, at a block boundary, inside a middle block and at its last
	// tuple.
	img, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	zones, ok := referenceZones(img)
	if !ok {
		t.Fatal("the first segment's block index does not read")
	}
	var later, largest int64
	for _, s := range segs[1:] {
		later += s.Bytes
	}
	for _, z := range zones {
		largest = max(largest, z.size)
	}
	mid := uint64(len(zones)/2) * DefaultBlockTuples
	for _, at := range []uint64{0, 5, DefaultBlockTuples, mid + 77, segs[0].Index.Tuples - 1} {
		cur := Cursor{Tuples: at, Segment: segs[0].ID, SegTuples: at}
		stats, err := r.ScanBatches(&cur, Query{}, AllColumns, func([]collect.TraceTuple) bool { return true })
		if err != nil || stats.TuplesScanned != r.Tuples()-at {
			t.Fatalf("cursor at %d scanned %d tuples, want %d: %v", at, stats.TuplesScanned, r.Tuples()-at, err)
		}
		var past, seen uint64
		var suffix int64
		for _, z := range zones {
			if seen >= at {
				suffix += z.size
				past += z.tuples
			}
			seen += z.tuples
		}
		if limit := suffix + largest + segs[0].IndexBytes + later; int64(stats.BytesScanned) > limit {
			t.Fatalf("cursor at %d read %d bytes, want at most %d: %d bytes of blocks past it (%d tuples), a block of %d, an index of %d and %d bytes of later segments",
				at, stats.BytesScanned, limit, suffix, past, largest, segs[0].IndexBytes, later)
		}
	}
}

// BenchmarkScanSelective is the repo benchmark's selective query
// against the archive alone: collectors 3 and 7 over a 4 ms stamp
// window, in a six-segment archive of benchmark-shaped replies (61
// collectors, runs of 64, default blocks). Successive queries step the
// window through 40 strata of the archive's span. One op is one query;
// make read-gates runs it once as a smoke test.
func BenchmarkScanSelective(b *testing.B) {
	dir := b.TempDir()
	w, err := Create(Options{Dir: dir, SegmentBytes: 256 << 10})
	if err != nil {
		b.Fatal(err)
	}
	const replies = 48
	rng := rand.New(rand.NewSource(2404))
	for k := 0; k < replies; k++ {
		if err := w.AppendRaw(encodeTuples(benchReply(rng, uint32(k*replyRunLen)))); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		b.Fatal(err)
	}
	if len(r.Segments()) < 4 {
		b.Fatalf("%d segments, want several", len(r.Segments()))
	}
	const window, strata = 4_000_000, 40
	stratum := (replies*replyRunLen*500_000 - window) / strata
	var matched uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := int64(1 + i%strata*stratum)
		q := Query{ECIDs: []uint32{3, 7}, MinStamp: from, MaxStamp: from + window - 1}
		stats, err := r.Scan(q, func(collect.TraceTuple) bool { return true })
		if err != nil {
			b.Fatal(err)
		}
		matched += stats.TuplesMatched
	}
	b.StopTimer()
	if matched == 0 {
		b.Fatal("no query matched a tuple")
	}
	b.ReportMetric(float64(matched)/float64(b.N), "tuples/query")
}

// BenchmarkScanFull is the repo benchmark's full scan against the
// archive alone: unfiltered Scans of 129 benchmark-shaped replies (61
// collectors, runs of 64; 503 616 tuples) written through AppendRaw
// with default options, every column of every tuple decoded. One op is
// one tuple scanned, so ns/op is ns/tuple: the loop scans the archive
// whole until b.N tuples have gone by, stopping the last scan at the
// b.N-th. A warm scan allocates only a constant per scan, the segment
// files' handles (about 22 allocations for its 503 616 tuples), so
// allocs/op reads 0 unless a scan allocates per tuple; per-block
// allocation is TestScanSteadyStateAllocs' to bound.
func BenchmarkScanFull(b *testing.B) {
	dir := b.TempDir()
	w, err := Create(Options{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4201))
	for k := 0; k < 129; k++ {
		if err := w.AppendRaw(encodeTuples(benchReply(rng, uint32(k*replyRunLen)))); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		b.Fatal(err)
	}
	var sum int64
	scan := func(limit int) int {
		n := 0
		stats, err := r.Scan(Query{}, func(tu collect.TraceTuple) bool {
			sum += tu.End - tu.Start
			n++
			return n < limit
		})
		if err != nil || stats.TornSegments != 0 || n < limit && stats.TuplesMatched != r.Tuples() {
			b.Fatalf("full scan matched %d of %d tuples, %d torn segments: %v", stats.TuplesMatched, r.Tuples(), stats.TornSegments, err)
		}
		return n
	}
	scan(math.MaxInt) // warm: the reader's image buffer and batch grow to size
	b.ReportAllocs()
	b.ResetTimer()
	for left := b.N; left > 0; {
		left -= scan(left)
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
