package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"eventspace/internal/collect"
	"eventspace/internal/hrtime"
)

// Segment header layout (64 bytes, little endian):
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
//
// The version names the block codec for the whole segment. Version 2
// (columnar blocks, see columnar.go) is the only one written or read;
// version 1 (row blocks: 8-byte header + count × 28-byte tuples) is
// retired, and a segment carrying it is refused with an error — never
// treated as crash damage, so never truncated or deleted.
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
}

func encodeHeader(h segmentHeader) []byte {
	buf := make([]byte, segmentHeaderSize)
	binary.LittleEndian.PutUint32(buf[0:4], segmentMagic)
	binary.LittleEndian.PutUint16(buf[4:6], segmentVersion)
	var flags uint16
	if h.Sealed {
		flags |= flagSealed
	}
	binary.LittleEndian.PutUint16(buf[6:8], flags)
	binary.LittleEndian.PutUint32(buf[8:12], h.ID)
	binary.LittleEndian.PutUint32(buf[12:16], h.Index.MinECID)
	binary.LittleEndian.PutUint32(buf[16:20], h.Index.MaxECID)
	binary.LittleEndian.PutUint64(buf[20:28], uint64(h.Index.MinStamp))
	binary.LittleEndian.PutUint64(buf[28:36], uint64(h.Index.MaxStamp))
	binary.LittleEndian.PutUint64(buf[36:44], h.Index.Tuples)
	binary.LittleEndian.PutUint32(buf[44:48], h.Index.Blocks)
	binary.LittleEndian.PutUint32(buf[60:64], crc32.ChecksumIEEE(buf[:60]))
	return buf
}

func decodeHeader(buf []byte) (segmentHeader, error) {
	if len(buf) < segmentHeaderSize {
		return segmentHeader{}, fmt.Errorf("archive: short segment header (%d bytes)", len(buf))
	}
	if m := binary.LittleEndian.Uint32(buf[0:4]); m != segmentMagic {
		return segmentHeader{}, fmt.Errorf("archive: bad segment magic %#x", m)
	}
	if got, want := crc32.ChecksumIEEE(buf[:60]), binary.LittleEndian.Uint32(buf[60:64]); got != want {
		return segmentHeader{}, fmt.Errorf("archive: segment header CRC mismatch (%#x != %#x)", got, want)
	}
	if v := binary.LittleEndian.Uint16(buf[4:6]); v != segmentVersion {
		return segmentHeader{}, fmt.Errorf("%w %d", errUnsupportedVersion, v)
	}
	h := segmentHeader{
		ID:     binary.LittleEndian.Uint32(buf[8:12]),
		Sealed: binary.LittleEndian.Uint16(buf[6:8])&flagSealed != 0,
	}
	h.Index = SegmentIndex{
		MinECID:  binary.LittleEndian.Uint32(buf[12:16]),
		MaxECID:  binary.LittleEndian.Uint32(buf[16:20]),
		MinStamp: int64(binary.LittleEndian.Uint64(buf[20:28])),
		MaxStamp: int64(binary.LittleEndian.Uint64(buf[28:36])),
		Tuples:   binary.LittleEndian.Uint64(buf[36:44]),
		Blocks:   binary.LittleEndian.Uint32(buf[44:48]),
	}
	return h, nil
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
	// The index must count every tuple the frames hold — the zero Query
	// would drop negative stamps, which the writer accepts.
	all := Query{MinStamp: math.MinInt64}
	w := blockWalk{q: &all, cols: AllColumns, dec: &dec, stats: &stats, fn: func(batch []collect.TraceTuple) bool {
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
// [min, max] (max <= 0 means unbounded).
func (x *SegmentIndex) overlapStamps(min, max hrtime.Stamp) bool {
	hi := max
	if hi <= 0 {
		hi = math.MaxInt64
	}
	return x.MinStamp <= hi && x.MaxStamp >= min
}
