package archive

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"eventspace/internal/collect"
	"eventspace/internal/hrtime"
	"eventspace/internal/metrics"
	"eventspace/internal/paths"
	"eventspace/internal/vclock"
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
// Segments are walked a chunk of blocks at a time, decoded into a
// reused ring — never materialized whole. Blocks a sealed segment's
// block index rules out are never read, and blocks whose ECID/op
// dictionaries cannot intersect q are skipped after a dictionary-only
// CRC check, without decoding any column. Every other block has all its
// columns checksummed; under a filter only the filter columns are then
// decoded whole, and the rest only at the rows q keeps (see Query).
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
// runs of blocks the index leaves to read), the index's decoded zones,
// the block decoder's batch and the decode stage. A Reader keeps the
// last one between scans, so a warm scan allocates none of them; each
// scan overwrites what the last left, and nothing fn sees aliases img.
type scanScratch struct {
	img   []byte
	zones []blockZone
	dec   blockDecoder
	ahead stage
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
	scr.ahead.q, scr.ahead.cols = q, cols|q.columns()
	w := blockWalk{q: &scr.ahead.q, cols: scr.ahead.cols, dec: &scr.dec, stats: &stats, fn: fn}
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
		if w.blocks(buf, off, &scr.ahead) {
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
// that straddles a cursor) and hands q's rows to fn. ok=false means the
// block is torn; stopped, that fn stopped the scan.
func (w *blockWalk) block(f *columnarFrame, from int) (ok, stopped bool) {
	batch, ok := decodeBlock(w.dec, f, w.q, w.cols, from)
	return ok, ok && w.deliver(f, from, batch)
}

// decodeBlock decodes framed block f from row from on with d: all of it
// under the zero Query, q's rows under a filter. ok=false: it is torn.
func decodeBlock(d *blockDecoder, f *columnarFrame, q *Query, cols Columns, from int) (batch []collect.TraceTuple, ok bool) {
	if q.columns() != 0 {
		return d.selectColumnar(f, q, cols, from)
	}
	batch, ok = d.decodeColumnar(f, cols)
	return batch[from:], ok
}

// deliver counts a scanned block whose rows from row from on decoded to
// batch, and hands a nonempty batch to fn. It reports whether fn stopped.
func (w *blockWalk) deliver(f *columnarFrame, from int, batch []collect.TraceTuple) (stopped bool) {
	w.stats.BlocksScanned++
	w.stats.TuplesScanned += uint64(int(f.count) - from)
	w.stats.TuplesMatched += uint64(len(batch))
	return len(batch) > 0 && !w.fn(batch)
}

// blocks walks one segment's blocks, buf, from byte offset off
// (segmentHeaderSize for a whole-segment walk; past it when a cursor
// scan already skipped a prefix), skipping blocks the query cannot
// match, and hands each scanned block's rows to fn. It reports whether
// fn stopped the scan. A block that does not frame or decode — partial
// header or directory, short payload, CRC mismatch, invalid count — is
// a torn tail: it ends the walk and is counted. The blocks are framed
// first and cut into chunks that s decodes ahead on a helper goroutine
// while the caller hands them to fn in order, counting only the blocks
// it reaches (DESIGN §12). No helper starts under the virtual clock (a
// model goroutine must not wait on a plain channel), on one processor,
// or for fewer than two chunks: the caller decodes each chunk it takes.
func (w *blockWalk) blocks(buf []byte, off int64, s *stage) (stopped bool) {
	s.frames = s.frames[:0]
	whole := true // no block tore
	for off < int64(len(buf)) {
		f, ok := frameColumnarBlock(buf[off:])
		if whole = ok; !ok {
			break
		}
		s.frames = append(s.frames, f)
		off += f.size
	}
	s.n, s.own = (len(s.frames)+chunkBlocks-1)/chunkBlocks, -1
	s.next.Store(0)
	s.freed.Store(0)
	if s.n >= 2 && !vclock.Active() && runtime.GOMAXPROCS(0) > 1 {
		if s.helper == nil {
			s.room, s.done, s.exited = make(chan struct{}, 1), make(chan struct{}, ringChunks), make(chan struct{}, 1)
			s.helper = s.decodeAhead
		}
		s.stop.Store(false)
		vclock.Go(s.helper)
		defer s.halt()
	}
	for k := range s.n {
		c := s.take(k)
		for i := range c.n {
			if c.skipped&(1<<i) != 0 {
				w.stats.BlocksSkipped++
			} else if w.deliver(&s.frames[k*chunkBlocks+i], 0, c.batches[i]) {
				return true
			}
		}
		if c.n < min(chunkBlocks, len(s.frames)-k*chunkBlocks) {
			whole = false // block c.n did not decode
			break
		}
		s.freed.Store(int32(k + 1))
		s.wake()
	}
	if !whole {
		w.stats.TornSegments++
	}
	return false
}

const (
	chunkBlocks = 32 // blocks per chunk: a block decodes faster than a hand-off
	ringChunks  = 3  // decoded chunks held: the one delivered, two ahead
)

// stage is a whole-segment walk's decode stage: the framed blocks and a
// ring of decoded chunks, chunk k in slot k%ringChunks. Both sides claim
// chunks in order from next; the helper decodes chunk k once chunk
// k-ringChunks is delivered, and signals done for each.
type stage struct {
	q                  Query
	cols               Columns
	frames             []columnarFrame
	n                  int // chunks in frames
	ring               [ringChunks]chunk
	next               atomic.Int32  // the first chunk neither side has claimed
	freed              atomic.Int32  // the chunks the caller has delivered
	stop               atomic.Bool   // the caller is done with the segment
	own                int           // a chunk the caller decoded ahead, or -1
	room, done, exited chan struct{} // a slot freed; a chunk decoded (one per slot); the helper exited
	helper             func()        // decodeAhead, bound once
}

// chunk is a ring slot: its first n blocks decoded (block n is torn if
// n is short), their batches back to back in rows, skipped ones' bits.
type chunk struct {
	dec     blockDecoder
	rows    []collect.TraceTuple
	batches [chunkBlocks][]collect.TraceTuple
	skipped uint32
	n       int
}

// halt stops the helper, waits for its exit and drops untaken signals.
func (s *stage) halt() {
	s.stop.Store(true)
	s.wake()
	<-s.exited
	for len(s.done) > 0 {
		<-s.done
	}
}

// wake nudges a helper waiting for a slot, if one ever started.
func (s *stage) wake() {
	select {
	case s.room <- struct{}{}:
	default:
	}
}

// decodeAhead is the helper: it claims and decodes each next chunk once
// its slot is free, until the chunks run out or the caller halts it.
func (s *stage) decodeAhead() {
	for !s.stop.Load() {
		if k := s.next.Load(); k >= int32(s.n) {
			break
		} else if k >= s.freed.Load()+ringChunks {
			<-s.room
		} else if s.next.CompareAndSwap(k, k+1) {
			s.decode(int(k))
			s.done <- struct{}{}
		}
	}
	s.exited <- struct{}{}
}

// take returns chunk k decoded: by the caller, now, if the helper has
// not claimed it, else by the helper. While it waits for the helper, the
// caller decodes chunk k+1 if that is unclaimed too (its slot's chunk,
// k-2, is delivered), so both decode when delivery is the lighter stage.
// The helper decodes in claim order, so its next signal is chunk k's.
func (s *stage) take(k int) *chunk {
	switch {
	case s.own == k:
	case s.next.CompareAndSwap(int32(k), int32(k+1)):
		s.decode(k)
	default:
		if j := k + 1; j < s.n && s.next.CompareAndSwap(int32(j), int32(j+1)) {
			s.decode(j)
			s.own = j
		}
		<-s.done
	}
	return &s.ring[k%ringChunks]
}

// decode decodes chunk k's blocks into its slot, up to the first torn
// one, each block's batch in place behind the rows the last ones kept.
func (s *stage) decode(k int) {
	c, frames := &s.ring[k%ringChunks], s.frames[k*chunkBlocks:min((k+1)*chunkBlocks, len(s.frames))]
	total, at := 0, 0
	for i := range frames {
		total += int(frames[i].count)
	}
	if cap(c.rows) < total {
		c.rows = make([]collect.TraceTuple, total)
	}
	for c.skipped, c.n = 0, 0; c.n < len(frames); c.n++ {
		f := &frames[c.n]
		if c.dec.skipColumnar(f, &s.q) {
			c.skipped |= 1 << c.n
			continue
		}
		c.dec.batch = c.rows[at:at]
		batch, ok := decodeBlock(&c.dec, f, &s.q, s.cols, 0)
		if !ok {
			return
		}
		c.batches[c.n], at = batch, at+len(batch)
	}
}
