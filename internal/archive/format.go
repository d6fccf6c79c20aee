package archive

import (
	"errors"
	"fmt"

	"eventspace/internal/collect"
	"eventspace/internal/hrtime"
	"eventspace/internal/wire"
)

// Segment header: 64 bytes at the front of every segment file, declared
// by segmentHeader.walk. Its version names the block codec for the whole
// segment. Version 2 (columnar blocks, see columnar.go) is the only one
// written or read; version 1 (row blocks: 8-byte header + count ×
// 28-byte tuples) is retired, and a segment carrying it is refused with
// an error — never treated as crash damage, so never truncated or
// deleted.
const (
	segmentMagic      = 0x31475345 // "ESG1" little-endian
	segmentVersion    = 2
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

	magic   uint32
	version uint16
}

// walk is the header's one declaration:
//
//	off  size  field
//	  0     4  magic "ESG1"
//	  4     2  version (2: columnar blocks)
//	  6     2  flags (bit 0: sealed)
//	  8     4  segment id
//	 12     4  min ECID        ┐
//	 16     4  max ECID        │ index over the segment's tuples,
//	 20     8  min stamp       │ valid once sealed; recovered by a
//	 28     8  max stamp       │ block scan otherwise
//	 36     8  tuple count     │
//	 44     4  block count     ┘
//	 48    12  reserved (zero)
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
	c.Pad(12)
	c.CRC32(0)
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
	// ValidBytes is the offset just past the last intact block: the
	// truncation point for a crash-safe reopen.
	ValidBytes int64
	// Torn reports that trailing bytes past ValidBytes were dropped
	// (a partial block header, short payload, bad CRC, or an invalid
	// count — the torn-tail signature).
	Torn bool
}

// scanSegment decodes a whole segment image: the header, then every
// intact block in order. It never fails on a damaged tail — it stops
// there and reports how much was valid — but it does fail on a
// missing/corrupt header, which no crash of an append-only writer can
// produce (headers are written before the first block).
func scanSegment(buf []byte) (scanResult, error) {
	h, err := decodeHeader(buf)
	if err != nil {
		return scanResult{}, err
	}
	res := scanResult{Header: h}
	var dec blockDecoder
	var stats ScanStats
	w := blockWalk{q: &Query{}, cols: AllColumns, dec: &dec, stats: &stats, fn: func(batch []collect.TraceTuple) bool {
		for i := range batch {
			res.Index.add(batch[i])
		}
		return true
	}}
	res.ValidBytes, _ = w.blocks(buf, segmentHeaderSize)
	res.Index.Blocks = uint32(stats.BlocksScanned)
	res.Torn = stats.TornSegments > 0
	return res, nil
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
