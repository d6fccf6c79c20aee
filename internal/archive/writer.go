package archive

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"eventspace/internal/collect"
	"eventspace/internal/hrtime"
	"eventspace/internal/metrics"
)

// segmentFileName names segment id on disk. Ids are monotonically
// increasing, so lexical order equals write order.
func segmentFileName(id uint32) string { return fmt.Sprintf("seg-%08d.eseg", id) }

// parseSegmentFileName inverts segmentFileName.
func parseSegmentFileName(name string) (uint32, bool) {
	rest, ok := strings.CutPrefix(name, "seg-")
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, ".eseg")
	if !ok || len(rest) != 8 {
		return 0, false
	}
	var id uint32
	for _, c := range rest {
		if c < '0' || c > '9' {
			return 0, false
		}
		id = id*10 + uint32(c-'0')
	}
	return id, true
}

// writerSegment is the writer's bookkeeping for one on-disk segment.
type writerSegment struct {
	id   uint32
	path string
	size int64
}

// WriterStats is a snapshot of a writer's activity.
type WriterStats struct {
	Segments         int    // segment files currently on disk
	ActiveSegment    uint32 // id of the segment being appended to
	TuplesWritten    uint64 // tuples persisted by this writer
	BytesWritten     uint64 // block bytes persisted by this writer
	TotalBytes       int64  // archive size on disk, headers included
	Rotations        uint64 // segments sealed because of the size cap
	RetentionDeletes uint64 // old segments deleted by the total-bytes cap
	TornTruncations  uint64 // torn tails truncated at reopen
	TuplesRecovered  uint64 // tuples found in the reopened segment
}

// Writer appends trace tuples to a segmented archive directory. All
// methods are safe for concurrent use; tuples are persisted in Append
// order. A Writer is the sink end of the archive: a recorder's puller
// reaches it through its checkpointer (query.Sink), or call Append from
// a monitor tap.
type Writer struct {
	opts Options

	mu       sync.Mutex
	f        *os.File
	active   writerSegment
	index    SegmentIndex
	zones    []blockZone          // the active segment's block index so far
	pending  []collect.TraceTuple // appended tuples not yet in a block
	enc      columnarEncoder      // reused column scratch
	out      []byte               // blocks encoded by the running call, not yet handed to f
	sizes    []int64              // the byte size of each block in out
	sealed   []writerSegment      // older segments, oldest first
	total    int64                // bytes on disk across sealed + active
	closed   bool
	stats    WriterStats
	writeErr error // first unrecoverable file-system error, sticky

	// baseTuples counts the durable tuples already on disk when the
	// directory was (re)opened, so Position can report a cursor in
	// directory-lifetime tuple coordinates across crash-restart cycles.
	baseTuples uint64

	opWrite *metrics.Op
	// WriterStats' Rotations, RetentionDeletes and TornTruncations, kept
	// apart from the writer so a registry reading them keeps only them
	// alive.
	rotations, retentionDeletes, tornTruncations *atomic.Uint64
}

// Create opens (or crash-safely reopens) the archive directory and
// returns a Writer appending to it. An existing unsealed newest segment
// is continued after its torn tail, if any, is truncated away; at most
// the final partial block of the previous run is lost.
func Create(opts Options) (*Writer, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("archive: %v", err)
	}
	w := &Writer{
		opts:             opts,
		rotations:        new(atomic.Uint64),
		retentionDeletes: new(atomic.Uint64),
		tornTruncations:  new(atomic.Uint64),
	}
	if reg := opts.Metrics; reg != nil {
		label := "archive(" + filepath.Base(opts.Dir) + ")"
		w.opWrite = reg.Op(metrics.KindArchive, label)
		reg.Count(label+"/rotations", w.rotations)
		reg.Count(label+"/retention.deletes", w.retentionDeletes)
		reg.Count(label+"/truncations", w.tornTruncations)
	}
	if err := w.reopen(); err != nil {
		return nil, err
	}
	return w, nil
}

// listSegments returns the directory's segment files in id order.
func listSegments(dir string) ([]writerSegment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("archive: %v", err)
	}
	var segs []writerSegment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		id, ok := parseSegmentFileName(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("archive: %v", err)
		}
		segs = append(segs, writerSegment{id: id, path: filepath.Join(dir, e.Name()), size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].id < segs[j].id })
	return segs, nil
}

// segmentTuples returns the tuple count a segment file holds: the
// header index for sealed segments — read from the header alone, so
// reopening costs a sector per older segment, not the archive — and a
// block scan of the whole file for unsealed ones. A file without a
// valid header counts zero; one with an intact header of an
// unsupported version is an error, as it is for the reader.
func segmentTuples(path string) (uint64, error) {
	buf, err := readHeader(path)
	if err != nil {
		return 0, fmt.Errorf("archive: %v", err)
	}
	if len(buf) < segmentHeaderSize {
		return 0, nil
	}
	hdr, err := decodeHeader(buf)
	if errors.Is(err, errUnsupportedVersion) {
		return 0, fmt.Errorf("archive: segment %s: %w", path, err)
	}
	if err != nil {
		return 0, nil
	}
	if hdr.Sealed {
		return hdr.Index.Tuples, nil
	}
	if buf, err = os.ReadFile(path); err != nil {
		return 0, fmt.Errorf("archive: %v", err)
	}
	res, err := scanSegment(buf)
	if err != nil {
		return 0, nil
	}
	return res.Index.Tuples, nil
}

// reopen restores the writer's state from the directory: older segments
// count toward retention, and the newest, if unsealed, is validated,
// truncated past its last intact block and continued; after a sealed
// one, damaged or not, a fresh segment starts.
func (w *Writer) reopen() error {
	segs, err := listSegments(w.opts.Dir)
	if err != nil {
		return err
	}
	nextID := uint32(1)
	for _, s := range segs {
		w.total += s.size
		nextID = s.id + 1
	}
	// Older segments contribute their recorded tuple counts to the
	// directory-lifetime cursor basis; the newest is counted below from
	// its recovered index, after torn-tail repair.
	for _, s := range segs[:max(len(segs)-1, 0)] {
		n, err := segmentTuples(s.path)
		if err != nil {
			return err
		}
		w.baseTuples += n
	}
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		buf, err := os.ReadFile(last.path)
		if err != nil {
			return fmt.Errorf("archive: %v", err)
		}
		res, err := scanSegment(buf)
		switch {
		case errors.Is(err, errUnsupportedVersion):
			// An intact segment from a retired format, not crash
			// damage: refuse the directory and leave the file alone.
			return fmt.Errorf("archive: segment %s: %w", last.path, err)
		case err != nil:
			// The newest file never got a valid header (crash between
			// create and the first write). Drop it and start fresh
			// under the same id.
			w.total -= last.size
			if err := os.Remove(last.path); err != nil {
				return fmt.Errorf("archive: %v", err)
			}
			w.tornTruncations.Add(1)
			segs = segs[:len(segs)-1]
			nextID = last.id
		case res.Header.Sealed:
			// A sealed segment is whole as its writer left it (the
			// sealed header is the seal's last write), so damage
			// inside it is no crash's torn tail, and a reader already
			// steps around it. Leave the file alone, count its tuples
			// from its header as for an older segment, and start a
			// fresh segment.
			w.baseTuples += res.Header.Index.Tuples
		case res.Torn:
			if err := os.Truncate(last.path, res.ValidBytes); err != nil {
				return fmt.Errorf("archive: %v", err)
			}
			w.total -= last.size - res.ValidBytes
			last.size = res.ValidBytes
			segs[len(segs)-1] = last
			w.tornTruncations.Add(1)
			fallthrough
		default:
			w.baseTuples += res.Index.Tuples
			if !res.Header.Sealed {
				// Continue appending where the previous run stopped.
				f, err := os.OpenFile(last.path, os.O_RDWR, 0o644)
				if err != nil {
					return fmt.Errorf("archive: %v", err)
				}
				if _, err := f.Seek(last.size, 0); err != nil {
					f.Close()
					return fmt.Errorf("archive: %v", err)
				}
				w.f = f
				w.active = last
				w.index = res.Index
				w.zones = res.Zones
				w.stats.TuplesRecovered = res.Index.Tuples
				w.sealed = segs[:len(segs)-1]
				w.stats.Segments = len(segs)
				w.stats.ActiveSegment = last.id
				w.stats.TotalBytes = w.total
				return nil
			}
		}
	}
	w.sealed = segs
	return w.newSegment(nextID)
}

// newSegment creates and activates segment id with a provisional
// (unsealed) header.
func (w *Writer) newSegment(id uint32) error {
	path := filepath.Join(w.opts.Dir, segmentFileName(id))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("archive: %v", err)
	}
	hdr := encodeHeader(segmentHeader{ID: id})
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("archive: %v", err)
	}
	w.f = f
	w.active = writerSegment{id: id, path: path, size: segmentHeaderSize}
	w.index = SegmentIndex{}
	w.zones = w.zones[:0]
	w.total += segmentHeaderSize
	w.stats.Segments = len(w.sealed) + 1
	w.stats.ActiveSegment = id
	w.stats.TotalBytes = w.total
	return nil
}

// Append buffers tuples and persists them in whole blocks. Tuples are
// durable after the block holding them is written; Flush or Close
// forces out a partial block.
func (w *Writer) Append(tuples []collect.TraceTuple) error {
	if len(tuples) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("archive: writer closed")
	}
	if w.writeErr != nil {
		return w.writeErr
	}
	w.pending = append(w.pending, tuples...)
	return w.drainLocked(false)
}

// AppendRaw appends a concatenation of encoded tuples (an event-scope
// pull reply). The reply is decoded once, straight behind the partial
// block the previous call left pending, and its whole blocks are
// encoded from there, so steady-state archiving of gather replies
// copies each tuple once and allocates nothing. A trailing partial
// tuple is reported via collect's offset-carrying error after the whole
// tuples before it were appended.
func (w *Writer) AppendRaw(data []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("archive: writer closed")
	}
	if w.writeErr != nil {
		return w.writeErr
	}
	// Grown with a block to spare, for the partial block a later call
	// finds pending: replies of one size size the buffer once.
	if whole := len(data) / collect.TupleSize; cap(w.pending)-len(w.pending) < whole {
		w.pending = slices.Grow(w.pending, whole+w.opts.blockTuples())
	}
	var err error
	w.pending, err = collect.DecodeAppend(w.pending, data)
	if derr := w.drainLocked(false); derr != nil {
		return derr
	}
	return err
}

// drainLocked encodes the pending tuples' whole blocks (all: and the
// partial block behind them) where they lie and hands them to the
// segment file in one write; what stays pending moves to the front
// once. Blocks pile up in w.out only until the segment is full or an
// armed crash tears the next one: a rotation seals a file that already
// has its last block, and a torn block lands behind the whole ones
// before it.
func (w *Writer) drainLocked(all bool) error {
	bt := w.opts.blockTuples()
	// pending[done:off] is encoded in w.out and not yet written.
	done, off := 0, 0
	for off < len(w.pending) && (all || len(w.pending)-off >= bt) {
		batch := w.pending[off:min(off+bt, len(w.pending))]
		if frac, fire := w.opts.CrashPoints.hit(CrashBlockFlush); fire {
			// Persist only a torn prefix of the block and die: the index,
			// stats and pending buffer do not cover it, exactly as a power
			// cut mid-write would leave them.
			if err := w.writeOutLocked(w.pending[done:off]); err != nil {
				return err
			}
			buf := w.enc.appendBlock(w.out[:0], batch)
			if keep := tearLen(len(buf), frac); keep > 0 {
				w.f.Write(buf[:keep])
			}
			w.writeErr = ErrInjectedCrash
			return w.writeErr
		}
		n := len(w.out)
		w.out = w.enc.appendBlock(w.out, batch)
		w.sizes = append(w.sizes, int64(len(w.out)-n))
		off += len(batch)
		if w.active.size+int64(len(w.out)) >= w.opts.segmentBytes() {
			if err := w.writeOutLocked(w.pending[done:off]); err != nil {
				return err
			}
			done = off
			if err := w.rotateLocked(); err != nil {
				return err
			}
		}
	}
	err := w.writeOutLocked(w.pending[done:off])
	w.pending = w.pending[:copy(w.pending, w.pending[off:])]
	return err
}

// writeOutLocked hands the blocks in w.out — batch, encoded — to the
// segment file in one write. Only once the file has them do the index,
// the block zones, the sizes and the stats (and so Position) cover them;
// a failed write leaves all of those where they were and the writer
// sticky-dead.
func (w *Writer) writeOutLocked(batch []collect.TraceTuple) error {
	if len(w.out) == 0 {
		return nil
	}
	start := hrtime.Now()
	_, err := w.f.Write(w.out)
	w.opWrite.Record(hrtime.Since(start), len(w.out), err)
	if err != nil {
		w.writeErr = fmt.Errorf("archive: segment %d: %v", w.active.id, err)
		return w.writeErr
	}
	// The blocks hold batch in runs of bt tuples; only the last can be
	// short.
	bt, at := w.opts.blockTuples(), w.active.size
	for b, size := range w.sizes {
		z := blockZone{at: at, size: size}
		for i := b * bt; i < min((b+1)*bt, len(batch)); i++ {
			z.add(batch[i])
		}
		w.index.addBlock(z.SegmentIndex)
		w.zones = append(w.zones, z)
		at += size
	}
	w.sizes = w.sizes[:0]
	w.active.size += int64(len(w.out))
	w.total += int64(len(w.out))
	w.stats.TuplesWritten += uint64(len(batch))
	w.stats.BytesWritten += uint64(len(w.out))
	w.stats.TotalBytes = w.total
	w.out = w.out[:0]
	return nil
}

// sealLocked appends the active segment's block index behind its last
// block and then finalizes its header in place, pointing at the index.
func (w *Writer) sealLocked() error {
	if w.crashLocked(CrashSeal) {
		// Died before the index write: the segment keeps its valid
		// provisional (unsealed) header and every flushed block.
		return w.writeErr
	}
	at := w.active.size
	w.out = appendBlockIndex(w.out[:0], w.zones)
	n := int64(len(w.out))
	_, err := w.f.Write(w.out)
	w.out = w.out[:0]
	if err != nil {
		w.writeErr = fmt.Errorf("archive: sealing segment %d: %v", w.active.id, err)
		return w.writeErr
	}
	w.active.size += n
	w.total += n
	w.stats.TotalBytes = w.total
	if w.crashLocked(CrashSealIndex) {
		// Died between the index write and the header rewrite: still
		// unsealed, so a reopen cuts the index as a torn tail.
		return w.writeErr
	}
	hdr := encodeHeader(segmentHeader{ID: w.active.id, Sealed: true, Index: w.index, IndexAt: uint64(at), IndexBytes: uint32(n)})
	if _, err := w.f.WriteAt(hdr, 0); err != nil {
		w.writeErr = fmt.Errorf("archive: sealing segment %d: %v", w.active.id, err)
		return w.writeErr
	}
	if err := w.f.Close(); err != nil {
		w.writeErr = fmt.Errorf("archive: closing segment %d: %v", w.active.id, err)
		return w.writeErr
	}
	w.f = nil
	return nil
}

// crashLocked reports whether an armed crash fires at site, a step of
// sealing; if so the writer dies there, its file closed. The 64-byte
// in-place header rewrite itself is modelled as atomic — it fits one
// sector — so the crash states around sealing are "unsealed" (CrashSeal,
// CrashSealIndex) and "sealed" (after).
func (w *Writer) crashLocked(site CrashSite) bool {
	if _, fire := w.opts.CrashPoints.hit(site); !fire {
		return false
	}
	w.f.Close()
	w.f = nil
	w.writeErr = ErrInjectedCrash
	return true
}

// rotateLocked seals the active segment, opens the next one, and
// applies the retention cap.
func (w *Writer) rotateLocked() error {
	if err := w.sealLocked(); err != nil {
		return err
	}
	w.sealed = append(w.sealed, w.active)
	w.rotations.Add(1)
	if _, fire := w.opts.CrashPoints.hit(CrashRotate); fire {
		// Die between sealing the old segment and writing the new one's
		// header, leaving the header-less empty file a real crash at
		// this instant leaves; reopen drops it and reuses the id.
		if f, err := os.OpenFile(filepath.Join(w.opts.Dir, segmentFileName(w.active.id+1)),
			os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644); err == nil {
			f.Close()
		}
		w.writeErr = ErrInjectedCrash
		return w.writeErr
	}
	if err := w.newSegment(w.active.id + 1); err != nil {
		w.writeErr = err
		return err
	}
	// Retention: drop the oldest sealed segments until the total fits.
	// The active segment is never deleted.
	if limit := w.opts.MaxTotalBytes; limit > 0 {
		for w.total > limit && len(w.sealed) > 0 {
			old := w.sealed[0]
			if err := os.Remove(old.path); err != nil {
				w.writeErr = fmt.Errorf("archive: retention: %v", err)
				return w.writeErr
			}
			w.sealed = w.sealed[1:]
			w.total -= old.size
			w.retentionDeletes.Add(1)
		}
		w.stats.Segments = len(w.sealed) + 1
		w.stats.TotalBytes = w.total
	}
	return nil
}

// Flush forces buffered tuples out as a (possibly short) block.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("archive: writer closed")
	}
	if w.writeErr != nil {
		return w.writeErr
	}
	return w.drainLocked(true)
}

// Close flushes buffered tuples, seals the active segment, and releases
// the writer. Close is idempotent.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.writeErr != nil {
		if w.f != nil {
			w.f.Close()
			w.f = nil
		}
		return w.writeErr
	}
	if err := w.drainLocked(true); err != nil {
		if w.f != nil {
			w.f.Close()
			w.f = nil
		}
		return err
	}
	if err := w.sealLocked(); err != nil {
		if w.f != nil {
			w.f.Close()
			w.f = nil
		}
		return err
	}
	w.sealed = append(w.sealed, w.active)
	return nil
}

// Position returns the writer's current durable cursor: the tuples of
// every block the segment files have accepted, in directory-lifetime
// coordinates. Tuples still buffered in a partial block are NOT covered
// — call Flush first when the cursor must cover everything appended so
// far — and neither is a block whose write failed or was torn. A checkpoint
// stamped with this cursor owns exactly the archive prefix before it;
// Reader.ScanFrom replays the suffix after it.
func (w *Writer) Position() Cursor {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Cursor{
		Tuples:    w.baseTuples + w.stats.TuplesWritten,
		Segment:   w.active.id,
		SegTuples: w.index.Tuples,
	}
}

// Stats snapshots the writer's activity counters.
func (w *Writer) Stats() WriterStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.stats
	s.Segments = len(w.sealed) + 1
	if w.f == nil {
		s.Segments = len(w.sealed)
	}
	s.TotalBytes = w.total
	s.Rotations = w.rotations.Load()
	s.RetentionDeletes = w.retentionDeletes.Load()
	s.TornTruncations = w.tornTruncations.Load()
	return s
}

// Dir returns the archive directory.
func (w *Writer) Dir() string { return w.opts.Dir }
