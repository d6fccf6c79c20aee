package archive

import (
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"eventspace/internal/collect"
	"eventspace/internal/hrtime"
	"eventspace/internal/metrics"
	"eventspace/internal/paths"
)

// Query selects tuples out of an archive. The zero value matches
// everything, and a scan hands its blocks through whole. Filters are
// pushed down three levels. The per-segment header index skips a
// segment whose ECID or stamp range cannot intersect the query without
// reading it. A sealed segment's block index skips, the same way, each
// block whose own ranges cannot — an ECID or stamp filter reads only
// the index and the blocks it cannot rule out. Each block read has its
// ECID and Op dictionaries checked, which skip it without decoding. In
// a block none skips, only the filter columns are decoded, to select the
// rows; the other fields are decoded for the selected rows alone.
type Query struct {
	// ECIDs restricts to these event-collector ids (empty: all).
	ECIDs []uint32
	// Ops restricts to these operation kinds (empty: all).
	Ops []paths.OpKind
	// MinStamp / MaxStamp bound the tuple's Start timestamp,
	// inclusive. MinStamp <= 0 means unbounded below, MaxStamp <= 0
	// unbounded above: a Query cannot bound a stamp at or below zero.
	MinStamp hrtime.Stamp
	MaxStamp hrtime.Stamp
}

// columns is the set of fields q filters on: empty for the zero Query.
func (q *Query) columns() Columns {
	var cols Columns
	if len(q.ECIDs) > 0 {
		cols |= ColECID
	}
	if len(q.Ops) > 0 {
		cols |= ColOp
	}
	if q.MinStamp > 0 || q.MaxStamp > 0 {
		cols |= ColStart
	}
	return cols
}

// stamps returns q's inclusive bounds on Start, the unset ones widened
// to the whole int64 range.
func (q *Query) stamps() (lo, hi hrtime.Stamp) {
	lo, hi = math.MinInt64, math.MaxInt64
	if q.MinStamp > 0 {
		lo = q.MinStamp
	}
	if q.MaxStamp > 0 {
		hi = q.MaxStamp
	}
	return lo, hi
}

// keeps reports whether v, a value of the ECID or Op column, is in q's
// set for that column.
func (q *Query) keeps(col int, v uint64) bool {
	if col == colECID {
		return slices.Contains(q.ECIDs, uint32(v))
	}
	return slices.Contains(q.Ops, paths.OpKind(uint16(v)))
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
	// IndexBytes is the size of a sealed segment's block index, which
	// fills the file's tail from where the blocks end; 0 when it has
	// none (unsealed, or a header that places it elsewhere).
	IndexBytes int64

	blocksEnd int64 // where the blocks end: the block index, or the file's end
}

// ScanStats reports what one query actually touched — the pushdown
// accounting that the benchmark and tests pin down.
type ScanStats struct {
	Segments        int    // segments in the archive
	SegmentsSkipped int    // skipped wholesale via the header index
	SegmentsScanned int    // segments whose blocks were read
	BlocksScanned   uint64 // blocks whose filter columns were decoded (every column, for the zero Query)
	BlocksSkipped   uint64 // blocks skipped undecoded (block index, dictionary or cursor skips)
	TuplesScanned   uint64 // tuples in the scanned blocks (past the cursor)
	TuplesMatched   uint64 // tuples that passed the filters
	TuplesSkipped   uint64 // tuples jumped over without decoding (index or cursor skips)
	BytesScanned    uint64 // segment bytes read off disk, block index included
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
		info := SegmentInfo{ID: hdr.ID, Path: s.path, Bytes: s.size, Sealed: hdr.Sealed, Index: hdr.Index, blocksEnd: hdr.blocksEnd(s.size)}
		if info.blocksEnd+int64(hdr.IndexBytes) == s.size {
			info.IndexBytes = int64(hdr.IndexBytes)
		}
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
// never materialized whole. Blocks a sealed segment's block index rules
// out are never read, and blocks whose ECID/op dictionaries cannot
// intersect q are skipped after a dictionary-only CRC check, without
// decoding any column. Every other block has all its columns
// checksummed; under a filter only the filter columns are then decoded
// whole, and the rest only at the rows q keeps (see Query).
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

// scanScratch is what one scan reads and decodes into: the bytes read
// from the current segment (its image, or its block index and then the
// runs of blocks the index leaves to read), the index's decoded zones
// and the block decoder's batch. A Reader keeps the last one between
// scans, so a warm scan allocates none of them; each scan overwrites
// what the last left there, and nothing a callback sees aliases img.
type scanScratch struct {
	img   []byte
	zones []blockZone
	dec   blockDecoder
}

// readAt reads n bytes at offset off of f into buf's storage, growing it
// when short. A file that ends early yields the bytes it has, no error.
func readAt(f *os.File, buf []byte, off, n int64) ([]byte, error) {
	if int64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	got, err := f.ReadAt(buf[:n], off)
	if err == io.EOF {
		err = nil
	}
	return buf[:got], err
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
// filters on, and hands fn each block's matches as one batch. A sealed
// segment that the query's ECIDs or stamps, or the cursor, can prune
// block by block is read through its block index (blockWalk.indexed);
// every other segment is read whole and walked from its first block.
func (r *Reader) scan(cur *Cursor, q Query, cols Columns, fn func([]collect.TraceTuple) bool) (ScanStats, error) {
	stats := ScanStats{Segments: len(r.segs)}
	start := hrtime.Now()
	defer func() {
		r.opScan.Record(hrtime.Since(start), int(stats.BytesScanned), nil)
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
	prunes := q.columns()&(ColECID|ColStart) != 0
	for i := range r.segs[first:] {
		s := &r.segs[first+i]
		covered := uint64(0)
		if cur != nil && s.ID == cur.Segment {
			covered = cur.SegTuples
		}
		uncovered := s.Index.Tuples - covered
		if uncovered == 0 || !s.Index.meets(&q) {
			stats.SegmentsSkipped++
			stats.BytesSkipped += uint64(s.Bytes)
			stats.TuplesSkipped += uncovered
			continue
		}
		if s.IndexBytes > 0 && (prunes || covered > 0) {
			planned, stopped, err := w.indexed(s, covered, scr)
			if err != nil || stopped {
				return stats, err
			}
			if planned {
				continue
			}
		}
		buf, err := readSegment(s.Path, scr.img)
		scr.img = buf
		if err != nil {
			return stats, fmt.Errorf("archive: %v", err)
		}
		stats.BytesScanned += uint64(len(buf))
		if _, err := decodeHeader(buf); err != nil {
			return stats, fmt.Errorf("archive: segment %s: %v", s.Path, err)
		}
		stats.SegmentsScanned++
		buf = buf[:min(s.blocksEnd, int64(len(buf)))]
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
			ok, stopped := w.block(&f, int(skip))
			if !ok {
				return stats, fmt.Errorf("archive: segment %s: torn before cursor position", s.Path)
			}
			off += f.size
			stats.TuplesSkipped += skip
			if stopped {
				return stats, nil
			}
			skip = 0
		}
		if w.blocks(buf, off) {
			return stats, nil
		}
	}
	return stats, nil
}

// indexed scans sealed segment s through its block index: blocks the
// cursor covers (covered tuples) and blocks whose ECID or Start range
// cannot meet the query are skipped unread, and each run of the blocks
// left is read with one pread and walked as the whole-segment walk
// walks them. The header, read at open, is not read again. planned=false,
// with only the index read, means the index is damaged; the caller then
// walks the segment whole, so damage costs speed, never answers.
func (w *blockWalk) indexed(s *SegmentInfo, covered uint64, scr *scanScratch) (planned, stopped bool, err error) {
	f, err := os.Open(s.Path)
	if err != nil {
		return false, false, fmt.Errorf("archive: %v", err)
	}
	defer f.Close()
	scr.img, err = readAt(f, scr.img, s.blocksEnd, s.IndexBytes)
	if err != nil {
		return false, false, fmt.Errorf("archive: %v", err)
	}
	w.stats.BytesScanned += uint64(len(scr.img))
	var ok bool
	if scr.zones, ok = decodeBlockIndex(scr.img, &s.Index, s.blocksEnd, scr.zones); !ok {
		return false, false, nil
	}
	w.stats.SegmentsScanned++
	w.stats.BytesSkipped += segmentHeaderSize
	zones, skip := scr.zones, covered
	var run []byte // the blocks of the last pread, from runAt on
	var runAt int64
	for i := range zones {
		z := &zones[i]
		if z.Tuples <= skip || !z.meets(w.q) {
			skip -= min(skip, z.Tuples)
			w.stats.BlocksSkipped++
			w.stats.TuplesSkipped += z.Tuples
			w.stats.BytesSkipped += uint64(z.size)
			continue
		}
		from := skip // nonzero only in the block straddling the cursor
		skip = 0
		if z.at >= runAt+int64(len(run)) {
			// A new run: this block and each next one the query can meet.
			end := z.at + z.size
			for j := i + 1; j < len(zones) && zones[j].meets(w.q); j++ {
				end += zones[j].size
			}
			if run, err = readAt(f, scr.img, z.at, end-z.at); err != nil {
				return true, false, fmt.Errorf("archive: %v", err)
			}
			scr.img, runAt = run, z.at
			w.stats.BytesScanned += uint64(len(run))
		}
		var fr columnarFrame
		ok := z.at+z.size <= runAt+int64(len(run))
		if ok {
			fr, ok = frameColumnarBlock(run[z.at-runAt : z.at-runAt+z.size])
			ok = ok && fr.size == z.size && uint64(fr.count) == z.Tuples
		}
		if ok && from == 0 && w.dec.skipColumnar(&fr, w.q) {
			w.stats.BlocksSkipped++
			continue
		}
		if ok {
			ok, stopped = w.block(&fr, int(from))
		}
		if !ok && from > 0 {
			return true, false, fmt.Errorf("archive: segment %s: torn before cursor position", s.Path)
		}
		if !ok {
			w.stats.TornSegments++
			return true, false, nil
		}
		w.stats.TuplesSkipped += from
		if stopped {
			return true, true, nil
		}
	}
	return true, false, nil
}

// blockWalk is one scan's state between blocks: what to select and
// decode, where to count it, and who gets the matches.
type blockWalk struct {
	q     *Query
	cols  Columns // fields to decode: the caller's plus q's own
	dec   *blockDecoder
	stats *ScanStats
	fn    func([]collect.TraceTuple) bool
}

// block decodes one framed block from row from on (0 but in the block
// that straddles a cursor) and hands q's rows to fn: the whole decoded
// block under the zero Query, the selected rows under a filter. ok=false
// means the block is torn; stopped, that fn stopped the scan.
func (w *blockWalk) block(f *columnarFrame, from int) (ok, stopped bool) {
	var batch []collect.TraceTuple
	if w.q.columns() == 0 {
		batch, ok = w.dec.decodeColumnar(f, w.cols)
		batch = batch[from:]
	} else {
		batch, ok = w.dec.selectColumnar(f, w.q, w.cols, from)
	}
	if !ok {
		return false, false
	}
	w.stats.BlocksScanned++
	w.stats.TuplesScanned += uint64(int(f.count) - from)
	w.stats.TuplesMatched += uint64(len(batch))
	return true, len(batch) > 0 && !w.fn(batch)
}

// blocks walks one segment's blocks, buf, from byte offset off
// (segmentHeaderSize for a whole-segment walk; past it when a cursor
// scan already skipped a prefix), skipping blocks the query cannot
// match, and hands each scanned block's rows to fn. It reports whether
// fn stopped the scan. A block that does not frame or decode — partial
// header or directory, short payload, CRC mismatch, invalid count — is
// a torn tail: it ends the walk and is counted.
func (w *blockWalk) blocks(buf []byte, off int64) (stopped bool) {
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
		ok, stopped := w.block(&f, 0)
		if !ok {
			w.stats.TornSegments++
			break
		}
		off += f.size
		if stopped {
			return true
		}
	}
	return false
}
