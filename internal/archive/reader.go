package archive

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync/atomic"

	"eventspace/internal/collect"
	"eventspace/internal/hrtime"
	"eventspace/internal/metrics"
	"eventspace/internal/paths"
)

// Query selects tuples out of an archive. The zero value matches
// everything. Filters are pushed down to the per-segment header index:
// a segment whose ECID or stamp range cannot intersect the query is
// skipped without reading its blocks.
type Query struct {
	// ECIDs restricts to these event-collector ids (empty: all).
	ECIDs []uint32
	// Ops restricts to these operation kinds (empty: all).
	Ops []paths.OpKind
	// MinStamp / MaxStamp bound the tuple's Start timestamp,
	// inclusive. MaxStamp <= 0 means unbounded above.
	MinStamp hrtime.Stamp
	MaxStamp hrtime.Stamp
}

// match applies the per-tuple filters.
func (q *Query) match(t *collect.TraceTuple) bool {
	if len(q.ECIDs) > 0 {
		ok := false
		for _, id := range q.ECIDs {
			if t.ECID == id {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(q.Ops) > 0 {
		ok := false
		for _, op := range q.Ops {
			if t.Op == op {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if t.Start < q.MinStamp {
		return false
	}
	if q.MaxStamp > 0 && t.Start > q.MaxStamp {
		return false
	}
	return true
}

// columns is the set of fields match reads.
func (q *Query) columns() Columns {
	cols := ColStart
	if len(q.ECIDs) > 0 {
		cols |= ColECID
	}
	if len(q.Ops) > 0 {
		cols |= ColOp
	}
	return cols
}

// SegmentInfo describes one archived segment for tooling.
type SegmentInfo struct {
	ID        uint32
	Path      string
	Bytes     int64
	Sealed    bool
	Torn      bool  // the segment carries a damaged tail (ignored by reads)
	TornBytes int64 // bytes in the damaged tail beyond the last intact block
	Index     SegmentIndex
}

// ScanStats reports what one query actually touched — the pushdown
// accounting that the benchmark and tests pin down.
type ScanStats struct {
	Segments        int    // segments in the archive
	SegmentsSkipped int    // skipped wholesale via the header index
	SegmentsScanned int    // segments whose blocks were read
	BlocksScanned   uint64 // blocks decoded
	BlocksSkipped   uint64 // blocks skipped undecoded (dictionary or cursor skips)
	TuplesScanned   uint64 // tuples decoded
	TuplesMatched   uint64 // tuples that passed the filters
	TuplesSkipped   uint64 // tuples jumped over without decoding (index or cursor skips)
	BytesScanned    uint64 // segment bytes read off disk
	BytesSkipped    uint64 // segment bytes never read (index or cursor skips)
	TornSegments    int    // scanned segments with a damaged tail
}

// Reader queries an archive directory. It snapshots the segment list
// and headers at open time; segments written afterwards are not seen.
// A reader never modifies the archive.
type Reader struct {
	dir  string
	segs []SegmentInfo

	// skipped lists files tolerated-but-ignored at open time (a crash's
	// header-less newest segment). Close surfaces them so recovery paths
	// can report the damage they silently worked around.
	skipped []string

	scratch atomic.Pointer[scanScratch] // the idle scan buffers, nil while a scan has them

	opScan *metrics.Op
}

// OpenReader opens the archive directory for querying. Unsealed
// segments (an in-progress or crashed tail) are indexed by scanning
// their blocks; sealed segments load their header index only.
func OpenReader(dir string) (*Reader, error) {
	return OpenReaderMetrics(dir, nil)
}

// OpenReaderMetrics is OpenReader with scan-cost accounting in reg
// (nil disables, equivalent to OpenReader).
func OpenReaderMetrics(dir string, reg *metrics.Registry) (*Reader, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	r := &Reader{dir: dir}
	if reg != nil {
		r.opScan = reg.Op(metrics.KindArchive, "archive-scan("+dir+")")
	}
	for _, s := range segs {
		buf, err := readHeader(s.path)
		if err != nil {
			return nil, fmt.Errorf("archive: %v", err)
		}
		if len(buf) < segmentHeaderSize {
			// A crash can leave a header-less newest file; skip it, but
			// remember the damage for Close.
			r.skipped = append(r.skipped, s.path)
			continue
		}
		hdr, err := decodeHeader(buf)
		if err != nil {
			return nil, fmt.Errorf("archive: segment %s: %v", s.path, err)
		}
		info := SegmentInfo{ID: hdr.ID, Path: s.path, Bytes: s.size, Sealed: hdr.Sealed, Index: hdr.Index}
		if !hdr.Sealed {
			// No trustworthy index: recover it from the blocks.
			if buf, err = os.ReadFile(s.path); err != nil {
				return nil, fmt.Errorf("archive: %v", err)
			}
			res, err := scanSegment(buf)
			if err != nil {
				return nil, fmt.Errorf("archive: segment %s: %v", s.path, err)
			}
			info.Index = res.Index
			info.Torn = res.Torn
			if res.Torn {
				info.TornBytes = s.size - res.ValidBytes
			}
		}
		r.segs = append(r.segs, info)
	}
	sort.Slice(r.segs, func(i, j int) bool { return r.segs[i].ID < r.segs[j].ID })
	return r, nil
}

// readHeader returns the first segmentHeaderSize bytes of the file at
// path, fewer when the file is shorter: opening a sealed segment must
// not cost a read of its blocks.
func readHeader(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, segmentHeaderSize)
	n, err := f.ReadAt(buf, 0)
	if err == io.EOF {
		err = nil
	}
	return buf[:n], err
}

// Dir returns the archive directory.
func (r *Reader) Dir() string { return r.dir }

// Close reports the damage the reader tolerated silently while opening:
// header-less segment files a crash left behind, which open skips so
// queries still run. nil means the directory opened clean. A Reader
// holds no file handles between scans, so Close releases nothing; it
// exists to surface repair context that recovery paths must not drop.
func (r *Reader) Close() error {
	if len(r.skipped) == 0 {
		return nil
	}
	return fmt.Errorf("archive: skipped %d header-less segment file(s): %s",
		len(r.skipped), strings.Join(r.skipped, ", "))
}

// SkippedFiles lists the header-less segment files open tolerated.
func (r *Reader) SkippedFiles() []string {
	return append([]string(nil), r.skipped...)
}

// Segments lists the archive's segments in id (write) order.
func (r *Reader) Segments() []SegmentInfo {
	return append([]SegmentInfo(nil), r.segs...)
}

// Tuples returns the archive's total tuple count across segments.
func (r *Reader) Tuples() uint64 {
	var n uint64
	for _, s := range r.segs {
		n += s.Index.Tuples
	}
	return n
}

// Scan streams every tuple matching q, in archive (write) order,
// through fn. fn returning false stops the scan early. Damaged tails
// end a segment's scan without failing the query.
//
// Segments are walked block by block into one reused decode batch —
// never materialized whole — and blocks whose ECID/op dictionaries
// cannot intersect q are skipped after a dictionary-only CRC check,
// without decoding any column.
func (r *Reader) Scan(q Query, fn func(collect.TraceTuple) bool) (ScanStats, error) {
	return r.scanTuples(nil, q, fn)
}

// ScanBatches is Scan a block at a time, for readers that fold or copy
// tuples a batch at a time: fn receives each scanned block's matching
// tuples, in archive order, non-matching ones compacted out (a block
// with none is not delivered). A nil cur walks the whole archive; a
// non-nil one only what was archived after it, validated and skipped
// exactly as ScanFrom does. Only the fields in cols, and those q
// itself filters on, are decoded; the rest of each tuple is
// unspecified. The batch is the decoder's own scratch: fn may reorder
// or overwrite it and must not keep it past its return. The stats are
// those of a Scan (or ScanFrom) with the same q — every column of a
// block is checksummed whatever cols says, so a projected read tears
// exactly where a full one does.
func (r *Reader) ScanBatches(cur *Cursor, q Query, cols Columns, fn func([]collect.TraceTuple) bool) (ScanStats, error) {
	return r.scan(cur, q, cols, fn)
}

// scanTuples adapts the batch walk to a per-tuple callback with every
// column decoded. A stop inside a batch takes the tuples fn never saw
// back out of TuplesMatched.
func (r *Reader) scanTuples(cur *Cursor, q Query, fn func(collect.TraceTuple) bool) (ScanStats, error) {
	var unseen int
	stats, err := r.scan(cur, q, AllColumns, func(batch []collect.TraceTuple) bool {
		for i := range batch {
			if !fn(batch[i]) {
				unseen = len(batch) - i - 1
				return false
			}
		}
		return true
	})
	stats.TuplesMatched -= uint64(unseen)
	return stats, err
}

// scanScratch is what one scan reads and decodes into: the current
// segment's image and the block decoder's batch. A Reader keeps the
// last one between scans, so a warm scan allocates neither; nothing a
// callback sees aliases img.
type scanScratch struct {
	img []byte
	dec blockDecoder
}

// readSegment reads the whole file at path into buf's storage, growing
// it when the file is larger, and returns the image.
func readSegment(path string, buf []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return buf[:0], err
	}
	defer f.Close()
	buf = buf[:0]
	if fi, err := f.Stat(); err == nil && fi.Size() >= int64(cap(buf)) {
		// One byte of room past the expected size, so the read that
		// finds EOF needs no growth.
		buf = make([]byte, 0, fi.Size()+1)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// scan is the one per-segment walk behind Scan and ScanBatches
// (cur == nil: the whole archive) and ScanFrom (only what was archived
// after *cur): framing, index and dictionary skips, the cursor prefix,
// tear accounting and the stats. It decodes cols plus the fields q
// filters on, and hands fn each block's matches as one batch.
func (r *Reader) scan(cur *Cursor, q Query, cols Columns, fn func([]collect.TraceTuple) bool) (ScanStats, error) {
	stats := ScanStats{Segments: len(r.segs)}
	start := hrtime.Now()
	var bytes int
	defer func() {
		r.opScan.Record(hrtime.Since(start), bytes, nil)
	}()

	first := 0 // index of the first segment cur does not wholly cover
	if cur != nil {
		var prefix uint64
		first = -1
		for i, s := range r.segs {
			switch {
			case s.ID < cur.Segment:
				prefix += s.Index.Tuples
			case s.ID == cur.Segment:
				first = i
			}
		}
		if first < 0 {
			return stats, fmt.Errorf("archive: cursor segment %d not in archive", cur.Segment)
		}
		if got := prefix + cur.SegTuples; got != cur.Tuples {
			return stats, fmt.Errorf("archive: cursor mismatch: directory proves %d tuples before the cursor, cursor claims %d", got, cur.Tuples)
		}
		if have := r.segs[first].Index.Tuples; have < cur.SegTuples {
			return stats, fmt.Errorf("archive: cursor segment %d holds %d tuples, cursor covers %d", cur.Segment, have, cur.SegTuples)
		}
		// Everything before the cursor segment is covered by the
		// checkpoint: skipped wholesale, never read.
		for _, s := range r.segs[:first] {
			stats.SegmentsSkipped++
			stats.BytesSkipped += uint64(s.Bytes)
			stats.TuplesSkipped += s.Index.Tuples
		}
	}

	// Take the reader's scratch for the length of the scan; a scan that
	// finds it taken (a concurrent one, or one started from a callback)
	// works in a fresh one.
	scr := r.scratch.Swap(nil)
	if scr == nil {
		scr = new(scanScratch)
	}
	defer r.scratch.Store(scr)
	w := blockWalk{q: &q, cols: cols | q.columns(), dec: &scr.dec, stats: &stats, fn: fn}
	for _, s := range r.segs[first:] {
		covered := uint64(0)
		if cur != nil && s.ID == cur.Segment {
			covered = cur.SegTuples
		}
		uncovered := s.Index.Tuples - covered
		if uncovered == 0 || !s.Index.overlapECIDs(q.ECIDs) || !s.Index.overlapStamps(q.MinStamp, q.MaxStamp) {
			stats.SegmentsSkipped++
			stats.BytesSkipped += uint64(s.Bytes)
			stats.TuplesSkipped += uncovered
			continue
		}
		buf, err := readSegment(s.Path, scr.img)
		scr.img = buf
		if err != nil {
			return stats, fmt.Errorf("archive: %v", err)
		}
		bytes += len(buf)
		stats.BytesScanned += uint64(len(buf))
		if _, err := decodeHeader(buf); err != nil {
			return stats, fmt.Errorf("archive: segment %s: %v", s.Path, err)
		}
		stats.SegmentsScanned++
		off := int64(segmentHeaderSize)
		// Jump the covered prefix frame by frame: whole covered blocks
		// are sized but never decoded; the block straddling the cursor
		// is decoded once and its covered head dropped.
		for skip := covered; skip > 0; {
			f, ok := frameColumnarBlock(buf[off:])
			if !ok {
				return stats, fmt.Errorf("archive: segment %s: torn before cursor position", s.Path)
			}
			if count := uint64(f.count); count <= skip {
				skip -= count
				off += f.size
				stats.BlocksSkipped++
				stats.TuplesSkipped += count
				continue
			}
			batch, ok := w.dec.decodeColumnar(&f, w.cols)
			if !ok {
				return stats, fmt.Errorf("archive: segment %s: torn before cursor position", s.Path)
			}
			off += f.size
			stats.BlocksScanned++
			stats.TuplesSkipped += skip
			stats.TuplesScanned += uint64(len(batch)) - skip
			if !w.emit(batch[skip:]) {
				return stats, nil
			}
			skip = 0
		}
		if _, stopped := w.blocks(buf, off); stopped {
			return stats, nil
		}
	}
	return stats, nil
}

// blockWalk is one scan's state between blocks: what to match and
// decode, where to count it, and who gets the matches.
type blockWalk struct {
	q     *Query
	cols  Columns // fields to decode: the caller's plus q's own
	dec   *blockDecoder
	stats *ScanStats
	fn    func([]collect.TraceTuple) bool
}

// emit compacts a decoded batch down to q's matches, in place, and
// hands them to fn. It reports false when fn stopped the scan.
func (w *blockWalk) emit(batch []collect.TraceTuple) bool {
	n := 0
	for i := range batch {
		if w.q.match(&batch[i]) {
			if n != i {
				batch[n] = batch[i]
			}
			n++
		}
	}
	w.stats.TuplesMatched += uint64(n)
	return n == 0 || w.fn(batch[:n])
}

// blocks walks one segment image block by block from byte offset off
// (segmentHeaderSize for a whole-segment walk; past it when a cursor
// scan already skipped a prefix), skipping blocks the query cannot
// match, and emits each decoded block. It returns the offset just past
// the last intact block it walked and whether fn stopped the scan. A
// block that does not frame or decode — partial header or directory,
// short payload, CRC mismatch, invalid count — is a torn tail: it ends
// the walk and is counted.
func (w *blockWalk) blocks(buf []byte, off int64) (end int64, stopped bool) {
	for off < int64(len(buf)) {
		f, ok := frameColumnarBlock(buf[off:])
		if !ok {
			w.stats.TornSegments++
			break
		}
		if w.dec.skipColumnar(&f, w.q) {
			w.stats.BlocksSkipped++
			off += f.size
			continue
		}
		batch, ok := w.dec.decodeColumnar(&f, w.cols)
		if !ok {
			w.stats.TornSegments++
			break
		}
		off += f.size
		w.stats.BlocksScanned++
		w.stats.TuplesScanned += uint64(len(batch))
		if !w.emit(batch) {
			return off, true
		}
	}
	return off, false
}
