package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"eventspace/internal/collect"
	"eventspace/internal/hrtime"
	"eventspace/internal/wire"
)

// Segment header: 64 bytes at the front of every segment file, declared
// by segmentHeader.walk. Its version names the segment layout. Version 3
// (columnar blocks, see columnar.go, and a block index behind the last
// block of a sealed segment, see blockZone) is the only one written or
// read; versions 1 (row blocks) and 2 (columnar blocks, no block index)
// are retired, and a segment carrying either is refused with an error —
// never treated as crash damage, so never truncated or deleted.
const (
	segmentMagic      = 0x31475345 // "ESG1" little-endian
	segmentVersion    = 3
	segmentHeaderSize = 64

	flagSealed = 1 << 0
)

// errUnsupportedVersion marks an intact header (magic and CRC valid)
// whose version this build has no codec for.
var errUnsupportedVersion = errors.New("archive: unsupported segment version")

// SegmentIndex is the queryable summary of one segment's tuples: the
// pushdown filters skip a whole segment when its ranges cannot
// intersect the query.
type SegmentIndex struct {
	MinECID, MaxECID   uint32
	MinStamp, MaxStamp hrtime.Stamp
	Tuples             uint64
	Blocks             uint32
}

// add folds one tuple into the index. The stamp range is the range of
// Start — the one stamp a Query bounds, so the range is exact, and the
// one field that is a timestamp in every tuple: control tuples carry
// payload in End (an alert's query hash), which must not pass for a
// time. Segments sealed before this rule indexed max End — for data
// tuples never below Start, so merely conservative. The archive never
// consults a clock.
func (x *SegmentIndex) add(t collect.TraceTuple) {
	if x.Tuples == 0 {
		x.MinECID, x.MaxECID = t.ECID, t.ECID
		x.MinStamp, x.MaxStamp = t.Start, t.Start
	} else {
		if t.ECID < x.MinECID {
			x.MinECID = t.ECID
		}
		if t.ECID > x.MaxECID {
			x.MaxECID = t.ECID
		}
		if t.Start < x.MinStamp {
			x.MinStamp = t.Start
		}
		if t.Start > x.MaxStamp {
			x.MaxStamp = t.Start
		}
	}
	x.Tuples++
}

// segmentHeader is the decoded form of a segment file's first 64 bytes.
type segmentHeader struct {
	ID     uint32
	Sealed bool
	Index  SegmentIndex
	// IndexAt and IndexBytes locate a sealed segment's block index: it
	// starts where the blocks end. Both are zero while unsealed.
	IndexAt    uint64
	IndexBytes uint32

	magic   uint32
	version uint16
}

// walk is the header's one declaration:
//
//	off  size  field
//	  0     4  magic "ESG1"
//	  4     2  version (3: columnar blocks, block index)
//	  6     2  flags (bit 0: sealed)
//	  8     4  segment id
//	 12     4  min ECID        ┐
//	 16     4  max ECID        │ index over the segment's tuples,
//	 20     8  min stamp       │ valid once sealed; recovered by a
//	 28     8  max stamp       │ block scan otherwise
//	 36     8  tuple count     │
//	 44     4  block count     ┘
//	 48     8  block index offset  ┐ sealed only: where the blocks
//	 56     4  block index bytes   ┘ end and the block index starts
//	 60     4  CRC32(header[0:60])
func (h *segmentHeader) walk(c *wire.Codec) {
	c.U32(&h.magic)
	c.U16(&h.version)
	var flags uint16
	if h.Sealed {
		flags = flagSealed
	}
	c.U16(&flags)
	h.Sealed = flags&flagSealed != 0
	c.U32(&h.ID)
	c.U32(&h.Index.MinECID)
	c.U32(&h.Index.MaxECID)
	c.I64(&h.Index.MinStamp)
	c.I64(&h.Index.MaxStamp)
	c.U64(&h.Index.Tuples)
	c.U32(&h.Index.Blocks)
	c.U64(&h.IndexAt)
	c.U32(&h.IndexBytes)
	c.CRC32(0)
}

// blocksEnd is where a segment file of size bytes stops holding blocks:
// at its block index once sealed (the file's end if the header places
// the index past it), at the file's end while unsealed.
func (h *segmentHeader) blocksEnd(size int64) int64 {
	if h.Sealed && h.IndexAt >= segmentHeaderSize && h.IndexAt <= uint64(size) {
		return int64(h.IndexAt)
	}
	return size
}

func encodeHeader(h segmentHeader) []byte {
	h.magic, h.version = segmentMagic, segmentVersion
	c := wire.Writer(make([]byte, 0, segmentHeaderSize))
	h.walk(&c)
	return c.Bytes()
}

func decodeHeader(buf []byte) (h segmentHeader, err error) {
	c := wire.Reader(buf)
	switch h.walk(&c); {
	case h.magic != segmentMagic:
		err = fmt.Errorf("archive: bad segment magic %#x", h.magic)
	case c.Err() != nil:
		err = fmt.Errorf("archive: segment header: %w", c.Err())
	case h.version != segmentVersion:
		err = fmt.Errorf("%w %d", errUnsupportedVersion, h.version)
	}
	return h, err
}

// scanResult is what scanSegment recovered from a segment's bytes.
type scanResult struct {
	Header segmentHeader
	Index  SegmentIndex // recomputed from the blocks actually read
	// Zones are the intact blocks' index entries, in order: what a
	// writer continuing the segment seals into its block index.
	Zones []blockZone
	// ValidBytes is the offset just past the last intact block: the
	// truncation point for a crash-safe reopen.
	ValidBytes int64
	// Torn reports that bytes between ValidBytes and the end of the
	// blocks were dropped (a partial block header, short payload, bad
	// CRC, or an invalid count — the torn-tail signature). Trailing
	// block-index bytes of a segment whose seal did not finish are one.
	Torn bool
}

// scanSegment decodes a whole segment image: the header, then every
// intact block in order, up to the block index of a sealed segment. It
// never fails on a damaged tail — it stops there and reports how much
// was valid — but it does fail on a missing/corrupt header, which no
// crash of an append-only writer can produce (headers are written
// before the first block).
func scanSegment(buf []byte) (scanResult, error) {
	h, err := decodeHeader(buf)
	if err != nil {
		return scanResult{}, err
	}
	res := scanResult{Header: h, ValidBytes: segmentHeaderSize}
	end := h.blocksEnd(int64(len(buf)))
	var dec blockDecoder
	for res.ValidBytes < end {
		f, ok := frameColumnarBlock(buf[res.ValidBytes:end])
		var batch []collect.TraceTuple
		if ok {
			batch, ok = dec.decodeColumnar(&f, AllColumns)
		}
		if !ok {
			res.Torn = true
			break
		}
		z := blockZone{at: res.ValidBytes, size: f.size}
		for i := range batch {
			z.add(batch[i])
		}
		res.Index.addBlock(z.SegmentIndex)
		res.Zones = append(res.Zones, z)
		res.ValidBytes += f.size
	}
	return res, nil
}

// addBlock folds one block's index into x.
func (x *SegmentIndex) addBlock(b SegmentIndex) {
	if x.Tuples == 0 {
		x.MinECID, x.MaxECID = b.MinECID, b.MaxECID
		x.MinStamp, x.MaxStamp = b.MinStamp, b.MaxStamp
	} else {
		x.MinECID, x.MaxECID = min(x.MinECID, b.MinECID), max(x.MaxECID, b.MaxECID)
		x.MinStamp, x.MaxStamp = min(x.MinStamp, b.MinStamp), max(x.MaxStamp, b.MaxStamp)
	}
	x.Tuples += b.Tuples
	x.Blocks++
}

// blockZone is one block's entry in a sealed segment's block index: its
// byte range in the file and the ECID and Start ranges of its tuples
// (SegmentIndex with Tuples its count). A filtered or cursor scan plans
// from the zones which blocks to read at all.
type blockZone struct {
	at, size int64
	SegmentIndex
}

// blockZoneSize is one zone's encoded size.
const blockZoneSize = 32

// walk is a zone's declaration: block bytes u32, tuple count u32, min
// and max ECID u32, min and max Start i64. The offset is not stored: a
// segment's blocks lie back to back from the header on, so each one
// starts where the one before it ends.
func (z *blockZone) walk(c *wire.Codec) {
	size, count := uint32(z.size), uint32(z.Tuples)
	c.U32(&size)
	c.U32(&count)
	c.U32(&z.MinECID)
	c.U32(&z.MaxECID)
	c.I64(&z.MinStamp)
	c.I64(&z.MaxStamp)
	z.size, z.Tuples = int64(size), uint64(count)
}

// walkBlockIndex is the block index's one declaration:
//
//	off  size  field
//	  0     4  zero: where a block holds its tuple count, so the index
//	           never frames as a block (frameColumnarBlock refuses 0)
//	  4     4  block count n
//	  8   32n  n zones (blockZone.walk)
//	 …      4  CRC32 of the index bytes before it
//
// A read fills *zones' storage, grown when short, and leaves the
// offsets to decodeBlockIndex.
func walkBlockIndex(c *wire.Codec, zones *[]blockZone) {
	from := c.Pos()
	var zero uint32
	c.U32(&zero)
	n := c.Count(len(*zones), blockZoneSize)
	if !c.Writing() {
		*zones = slices.Grow((*zones)[:0], n)[:n]
	}
	for i := range *zones {
		(*zones)[i].walk(c)
	}
	c.CRC32(from)
}

// appendBlockIndex appends the block index of zones to dst.
func appendBlockIndex(dst []byte, zones []blockZone) []byte {
	c := wire.Writer(dst)
	walkBlockIndex(&c, &zones)
	return c.Bytes()
}

// decodeBlockIndex decodes p, the block index of a sealed segment with
// header index x whose blocks end at end, into zones' storage. ok=false
// is a damaged index: short, not led by zero, failing its CRC, or not
// describing exactly the header's blocks — count, tuples, and sizes that
// tile [header, end) with blocks of 1 to MaxBlockTuples tuples. A
// damaged index costs a scan its plan, never its answer: the caller
// walks the blocks instead.
func decodeBlockIndex(p []byte, x *SegmentIndex, end int64, zones []blockZone) ([]blockZone, bool) {
	c := wire.Reader(p)
	walkBlockIndex(&c, &zones)
	if c.Err() != nil || c.Pos() != len(p) || binary.LittleEndian.Uint32(p) != 0 || len(zones) != int(x.Blocks) {
		return zones, false
	}
	at, tuples := int64(segmentHeaderSize), uint64(0)
	for i := range zones {
		z := &zones[i]
		if z.Tuples == 0 || z.Tuples > MaxBlockTuples || z.size <= v2BlockHeaderSize+v2DirSize {
			return zones, false
		}
		z.at = at
		at += z.size
		tuples += z.Tuples
	}
	return zones, at == end && tuples == x.Tuples
}

// meets reports whether the index's ECID and stamp ranges can hold a
// tuple q keeps.
func (x *SegmentIndex) meets(q *Query) bool {
	lo, hi := q.stamps()
	return x.overlapECIDs(q.ECIDs) && x.overlapStamps(lo, hi)
}

// overlapECIDs reports whether any queried ECID can fall inside the
// index's ECID range.
func (x *SegmentIndex) overlapECIDs(ecids []uint32) bool {
	if len(ecids) == 0 {
		return true
	}
	for _, id := range ecids {
		if id >= x.MinECID && id <= x.MaxECID {
			return true
		}
	}
	return false
}

// overlapStamps reports whether the index's stamp range intersects
// [lo, hi] (Query.stamps).
func (x *SegmentIndex) overlapStamps(lo, hi hrtime.Stamp) bool {
	return x.MinStamp <= hi && x.MaxStamp >= lo
}
