package archive

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"

	"eventspace/internal/collect"
	"eventspace/internal/paths"
)

// encodeBlock is one block in a slice of its own, for the tests that
// look at blocks singly.
func (e *columnarEncoder) encodeBlock(tuples []collect.TraceTuple) []byte {
	return e.appendBlock(nil, tuples)
}

// referenceDictOrRaw is the dictionary encoder the hashless one
// replaced, kept as the reference it must agree with byte for byte: two
// passes over the column through a map. It returns the encoding and the
// payload.
func referenceDictOrRaw(tuples []collect.TraceTuple, col int) (byte, []byte) {
	dict := make(map[uint64]uint8, v2MaxDictEntries)
	var vals []uint64
	for i := range tuples {
		v := colValue(&tuples[i], col)
		if _, ok := dict[v]; !ok {
			if len(vals) == v2MaxDictEntries {
				var p []byte
				for i := range tuples {
					p = appendColValue(p, col, colValue(&tuples[i], col))
				}
				return colEncRaw, p
			}
			dict[v] = uint8(len(vals))
			vals = append(vals, v)
		}
	}
	p := binary.LittleEndian.AppendUint16(nil, uint16(len(vals)))
	for _, v := range vals {
		p = appendColValue(p, col, v)
	}
	for i := range tuples {
		p = append(p, dict[colValue(&tuples[i], col)])
	}
	return colEncDict, p
}

// sameAsReference fails unless the block's ECID, Op and Ret columns are
// the reference's encoding and bytes. (The other columns and the
// assembly are untouched code, pinned by TestGoldenSegments.)
func sameAsReference(t *testing.T, block []byte, tuples []collect.TraceTuple) {
	t.Helper()
	fr, ok := frameColumnarBlock(block)
	if !ok {
		t.Fatal("encoded block does not frame")
	}
	for _, col := range []int{colECID, colOp, colRet} {
		enc, want := referenceDictOrRaw(tuples, col)
		if fr.enc[col] != enc || !bytes.Equal(fr.col[col], want) {
			t.Fatalf("%s column: encoding %d, %d bytes; reference encoding %d, %d bytes",
				colName[col], fr.enc[col], len(fr.col[col]), enc, len(want))
		}
	}
}

// collidingValues returns n distinct values below limit whose probe
// sequences all start at one slot of the encoder's table.
func collidingValues(n int, limit uint64) []uint64 {
	var out []uint64
	home := dictHome(1)
	for v := uint64(1); v < limit && len(out) < n; v++ {
		if dictHome(v) == home {
			out = append(out, v)
		}
	}
	return out
}

// TestDictEncodeMatchesReference drives the memo-and-table dictionary
// encoder over every column shape beside the map-based reference: one
// warm encoder across all of them, so slots left by one column are
// stale for the next.
func TestDictEncodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2402))
	// fill builds a block whose three dictionary columns all take their
	// i-th value from pick(i), truncated to the column's width — so a
	// shape is exercised at 4 bytes (ECID) and 2 bytes (Op, Ret) at once.
	fill := func(n int, pick func(i int) uint64) []collect.TraceTuple {
		out := make([]collect.TraceTuple, n)
		for i := range out {
			v := pick(i)
			out[i] = collect.TraceTuple{Seq: uint32(i), Start: int64(i) * 1000, End: int64(i)*1000 + 700}
			setColValue(&out[i], colECID, v)
			setColValue(&out[i], colOp, v)
			setColValue(&out[i], colRet, v)
		}
		return out
	}
	distinct := func(k int) func(int) uint64 { return func(i int) uint64 { return uint64(i % k) } }
	lowBits := func(i int) uint64 { return uint64(i%200) * dictSlots } // equal low bits, distinct values
	collide16 := collidingValues(100, 1<<16)
	if len(collide16) < 50 {
		t.Fatalf("only %d 16-bit values share a home slot", len(collide16))
	}
	shapes := []struct {
		name   string
		tuples []collect.TraceTuple
	}{
		{"run-structured", benchReply(rng, 0)[:1024]},
		{"uniform-random", fill(700, func(int) uint64 { return rng.Uint64() })},
		{"random-small-domain", fill(700, func(int) uint64 { return uint64(rng.Intn(40)) })},
		{"all-equal", fill(256, func(int) uint64 { return 0xfffe })},
		{"all-zero", fill(256, func(int) uint64 { return 0 })},
		{"all-distinct", fill(256, func(i int) uint64 { return uint64(i) })},
		{"alternating-two", fill(256, func(i int) uint64 { return uint64(3 + 4*(i%2)) })},
		{"equal-low-bits", fill(400, lowBits)},
		{"one-home-slot", fill(300, func(i int) uint64 { return collide16[i%len(collide16)] })},
		{"distinct-255", fill(600, distinct(255))},
		{"distinct-256", fill(600, distinct(256))},
		{"distinct-257", fill(600, distinct(257))},
		{"distinct-257-late", fill(600, func(i int) uint64 { return uint64(min(i, 256)) })},
		{"one-tuple", fill(1, func(int) uint64 { return math.MaxUint64 })},
	}
	var enc columnarEncoder
	for round := 0; round < 2; round++ {
		for _, s := range shapes {
			t.Run(s.name, func(t *testing.T) {
				sameAsReference(t, enc.encodeBlock(s.tuples), s.tuples)
			})
		}
	}
}

// TestDictEncodeGenerationWrap walks the generation counter across its
// wrap-around with a stale slot in place: a value encoded just before
// the wrap sits in the table, stamped with a generation the counter is
// about to reach again, and must not be taken for an entry of the
// column that reaches it.
func TestDictEncodeGenerationWrap(t *testing.T) {
	var enc columnarEncoder
	stale := []collect.TraceTuple{{ECID: 7}, {ECID: 7}}
	// The slot of 7 is stamped with generation 2, then the counter is
	// set just short of the wrap.
	enc.gen = 1
	enc.encodeDictOrRaw(stale, colECID)
	if s := enc.slots[dictHome(7)]; s.gen != 2 || s.val != 7 {
		t.Fatalf("slot of 7 = %+v, want generation 2", s)
	}
	enc.gen = math.MaxUint32 - 1
	// The block's columns are encoded at generations MaxUint32, 1 (the
	// wrap) and 2. Ret is the first column after the wrap to meet the
	// value 7, at the stale slot's generation — and the slot claims
	// index 0 for it, where this column has 9.
	fresh := []collect.TraceTuple{{ECID: 9, Op: 9, Ret: 9}, {ECID: 9, Op: 9, Ret: 7}, {ECID: 9, Op: 9, Ret: 9}}
	for i := 0; i < 3; i++ {
		sameAsReference(t, enc.encodeBlock(fresh), fresh)
	}
	if enc.gen != 8 {
		t.Fatalf("generation after the wrap and nine columns = %d, want 8", enc.gen)
	}
}

// match is the row-at-a-time filter the selective decode replaced, kept
// as its reference: whether q keeps t. A stamp bound at or below zero
// is no bound.
func (q *Query) match(t *collect.TraceTuple) bool {
	return (len(q.ECIDs) == 0 || slices.Contains(q.ECIDs, t.ECID)) &&
		(len(q.Ops) == 0 || slices.Contains(q.Ops, t.Op)) &&
		(q.MinStamp <= 0 || t.Start >= q.MinStamp) &&
		(q.MaxStamp <= 0 || t.Start <= q.MaxStamp)
}

// referenceScan is the reference every scan is held to: each segment
// the header index and the cursor leave is read whole, every block it
// reads is decoded whole and its rows tested one at a time by match.
// It keeps the scan's skips — the cursor's covered blocks and the
// dictionaries' — and, for a sealed segment that a scan reads through
// its block index, the index's pruning, found by referenceZones from the
// image's bytes; a pruned block is never framed, so its damage does not
// show. cur == nil walks the whole archive. It returns the rows q keeps,
// in archive order, and the stats a scan must report. stopAt > 0 is a
// per-tuple callback that stops the scan at the stopAt-th row it sees:
// the rows end there, and the stats count the block it stopped in.
func referenceScan(r *Reader, cur *Cursor, q Query, stopAt int) ([]collect.TraceTuple, ScanStats, error) {
	stats := ScanStats{Segments: len(r.segs)}
	first := 0
	if cur != nil {
		for first < len(r.segs) && r.segs[first].ID < cur.Segment {
			s := r.segs[first]
			stats.SegmentsSkipped++
			stats.BytesSkipped += uint64(s.Bytes)
			stats.TuplesSkipped += s.Index.Tuples
			first++
		}
	}
	// excludes is the dictionary skip: a checksummed dictionary of a
	// filter column none of whose values q keeps.
	excludes := func(f *columnarFrame, col int) bool {
		if f.enc[col] != colEncDict || crc32.ChecksumIEEE(f.col[col]) != f.crc[col] {
			return false
		}
		n, vals, _, ok := splitDict(f.col[col], col)
		if !ok {
			return false
		}
		for e := 0; e < n; e++ {
			var t collect.TraceTuple
			setColValue(&t, col, readColValue(vals[e*colRawWidth[col]:], col))
			if col == colECID && slices.Contains(q.ECIDs, t.ECID) || col == colOp && slices.Contains(q.Ops, t.Op) {
				return false
			}
		}
		return true
	}
	// meets is the block index's pruning: whether a block's ECID and
	// Start ranges can hold a row q keeps.
	meets := func(z refZone) bool {
		ecids := len(q.ECIDs) == 0
		for _, id := range q.ECIDs {
			ecids = ecids || id >= z.minECID && id <= z.maxECID
		}
		return ecids && (q.MaxStamp <= 0 || z.minStart <= q.MaxStamp) && (q.MinStamp <= 0 || z.maxStart >= q.MinStamp)
	}
	var out []collect.TraceTuple
	var dec blockDecoder
	stopped := false
	// block scans the framed block at buf[off:], or reports it torn:
	// skip is the cursor's covered head, 0 past the cursor's block.
	block := func(buf []byte, off int64, skip uint64, want refZone) (size int64, ok bool) {
		f, ok := frameColumnarBlock(buf[off:])
		if ok && want.size > 0 {
			ok = f.size == want.size && uint64(f.count) == want.tuples
		}
		if ok && skip == 0 && (len(q.ECIDs) > 0 && excludes(&f, colECID) || len(q.Ops) > 0 && excludes(&f, colOp)) {
			stats.BlocksSkipped++
			return f.size, true
		}
		var batch []collect.TraceTuple
		if ok {
			batch, ok = dec.decodeColumnar(&f, AllColumns)
		}
		if !ok {
			return 0, false
		}
		stats.BlocksScanned++
		stats.TuplesSkipped += skip
		stats.TuplesScanned += uint64(len(batch)) - skip
		for i := range batch[skip:] {
			if tu := batch[skip:][i]; q.match(&tu) {
				out = append(out, tu)
				stats.TuplesMatched++
				if stopped = len(out) == stopAt; stopped {
					break
				}
			}
		}
		return f.size, true
	}
	for _, s := range r.segs[first:] {
		var skip uint64
		if cur != nil && s.ID == cur.Segment {
			skip = cur.SegTuples
		}
		x := s.Index
		stampsMeet := (q.MaxStamp <= 0 || x.MinStamp <= q.MaxStamp) && (q.MinStamp <= 0 || x.MaxStamp >= q.MinStamp)
		if x.Tuples == skip || !x.overlapECIDs(q.ECIDs) || !stampsMeet {
			stats.SegmentsSkipped++
			stats.BytesSkipped += uint64(s.Bytes)
			stats.TuplesSkipped += x.Tuples - skip
			continue
		}
		buf, err := os.ReadFile(s.Path)
		if err != nil {
			return out, stats, err
		}
		blocksEnd, idxBytes := referenceBlocksEnd(buf)
		if idxBytes > 0 && (len(q.ECIDs) > 0 || q.MinStamp > 0 || q.MaxStamp > 0 || skip > 0) {
			stats.BytesScanned += uint64(idxBytes)
			if zones, ok := referenceZones(buf); ok {
				stats.SegmentsScanned++
				stats.BytesSkipped += segmentHeaderSize
				var runEnd int64 // where the last pread stopped
				for i, z := range zones {
					if z.tuples <= skip || !meets(z) {
						skip -= min(skip, z.tuples)
						stats.BlocksSkipped++
						stats.TuplesSkipped += z.tuples
						stats.BytesSkipped += uint64(z.size)
						continue
					}
					if z.at >= runEnd {
						runEnd = z.at + z.size
						for _, next := range zones[i+1:] {
							if !meets(next) {
								break
							}
							runEnd += next.size
						}
						stats.BytesScanned += uint64(min(runEnd, int64(len(buf))) - z.at)
					}
					if _, ok := block(buf[:min(z.at+z.size, int64(len(buf)))], z.at, skip, z); !ok {
						if skip > 0 {
							return out, stats, fmt.Errorf("segment %s: torn before cursor position", s.Path)
						}
						stats.TornSegments++
						break
					}
					if stopped {
						return out, stats, nil
					}
					skip = 0
				}
				continue
			}
		}
		stats.BytesScanned += uint64(len(buf))
		stats.SegmentsScanned++
		buf = buf[:blocksEnd]
		for off := int64(segmentHeaderSize); off < int64(len(buf)) || skip > 0; {
			f, ok := frameColumnarBlock(buf[off:])
			if ok && uint64(f.count) <= skip {
				skip -= uint64(f.count)
				off += f.size
				stats.BlocksSkipped++
				stats.TuplesSkipped += uint64(f.count)
				continue
			}
			size, ok := block(buf, off, skip, refZone{})
			if !ok {
				if skip > 0 {
					return out, stats, fmt.Errorf("segment %s: torn before cursor position", s.Path)
				}
				stats.TornSegments++
				break
			}
			if stopped {
				return out, stats, nil
			}
			off += size
			skip = 0
		}
	}
	return out, stats, nil
}

// refZone is one block of a sealed segment's block index, as
// referenceZones reads it.
type refZone struct {
	at, size           int64
	tuples             uint64
	minECID, maxECID   uint32
	minStart, maxStart int64
}

// referenceBlocksEnd reads a segment image's header the long way: where
// its blocks end, and the size of the block index behind them — 0
// unless the segment is sealed and the index fills the file's tail.
func referenceBlocksEnd(img []byte) (end, idxBytes int64) {
	end = int64(len(img))
	at, n := int64(binary.LittleEndian.Uint64(img[48:])), int64(binary.LittleEndian.Uint32(img[56:]))
	if binary.LittleEndian.Uint16(img[6:])&flagSealed == 0 || at < segmentHeaderSize || at > end {
		return end, 0
	}
	if at+n != end {
		n = 0
	}
	return at, n
}

// referenceZones reads a sealed segment image's block index the long
// way, field by field: ok=false unless it is whole — its CRC holds, it
// starts with a zero word, and its zones tile the blocks with as many
// blocks and tuples as the header counts.
func referenceZones(img []byte) ([]refZone, bool) {
	end, idxBytes := referenceBlocksEnd(img)
	p := img[end:]
	if idxBytes < 12 || binary.LittleEndian.Uint32(p) != 0 ||
		crc32.ChecksumIEEE(p[:len(p)-4]) != binary.LittleEndian.Uint32(p[len(p)-4:]) {
		return nil, false
	}
	n := int(binary.LittleEndian.Uint32(p[4:]))
	if int64(8+32*n+4) != idxBytes || uint32(n) != binary.LittleEndian.Uint32(img[44:]) {
		return nil, false
	}
	zones := make([]refZone, n)
	at, tuples := int64(segmentHeaderSize), uint64(0)
	for i := range zones {
		e := p[8+32*i:]
		z := refZone{
			at: at, size: int64(binary.LittleEndian.Uint32(e)), tuples: uint64(binary.LittleEndian.Uint32(e[4:])),
			minECID: binary.LittleEndian.Uint32(e[8:]), maxECID: binary.LittleEndian.Uint32(e[12:]),
			minStart: int64(binary.LittleEndian.Uint64(e[16:])), maxStart: int64(binary.LittleEndian.Uint64(e[24:])),
		}
		if z.tuples == 0 || z.tuples > MaxBlockTuples || z.size <= v2BlockHeaderSize+v2DirSize {
			return nil, false
		}
		zones[i] = z
		at += z.size
		tuples += z.tuples
	}
	return zones, at == end && tuples == binary.LittleEndian.Uint64(img[36:])
}

// setColValue is colValue's inverse.
func setColValue(t *collect.TraceTuple, col int, v uint64) {
	switch col {
	case colECID:
		t.ECID = uint32(v)
	case colOp:
		t.Op = paths.OpKind(uint16(v))
	case colRet:
		t.Ret = int16(uint16(v))
	case colSeq:
		t.Seq = uint32(v)
	case colStart:
		t.Start = int64(v)
	default:
		t.End = int64(v)
	}
}

// readColValue reads a fixed-width column value.
func readColValue(b []byte, col int) uint64 {
	switch colRawWidth[col] {
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	default:
		return binary.LittleEndian.Uint64(b)
	}
}

// splitDict splits a dictionary payload into its value table and index
// bytes, validating the framing.
func splitDict(p []byte, col int) (n int, vals, idx []byte, ok bool) {
	if len(p) < 2 {
		return 0, nil, nil, false
	}
	n = int(binary.LittleEndian.Uint16(p[0:2]))
	w := colRawWidth[col]
	if n == 0 || n > v2MaxDictEntries || len(p) < 2+n*w {
		return 0, nil, nil, false
	}
	return n, p[2 : 2+n*w], p[2+n*w:], true
}

// referenceDecodeColumn is the per-value column decode the kernels
// replaced, kept as their reference: one switch on the encoding per
// column, then one binary.Uvarint or fixed-width read and one
// setColValue per value.
func referenceDecodeColumn(f *columnarFrame, col int, batch []collect.TraceTuple) bool {
	p := f.col[col]
	w := colRawWidth[col]
	switch f.enc[col] {
	case colEncRaw:
		if len(p) != len(batch)*w {
			return false
		}
		for i := range batch {
			setColValue(&batch[i], col, readColValue(p[i*w:], col))
		}
	case colEncDict:
		n, vals, idx, ok := splitDict(p, col)
		if !ok || len(idx) != len(batch) {
			return false
		}
		for i, ix := range idx {
			if int(ix) >= n {
				return false
			}
			setColValue(&batch[i], col, readColValue(vals[int(ix)*w:], col))
		}
	case colEncDelta:
		var prev uint64
		off := 0
		for i := range batch {
			u, n := binary.Uvarint(p[off:])
			if n <= 0 {
				return false
			}
			off += n
			prev += uint64(unzigzag(u))
			setColValue(&batch[i], col, prev)
		}
		return off == len(p)
	case colEncLatency:
		if col != colEnd {
			return false
		}
		off := 0
		for i := range batch {
			u, n := binary.Uvarint(p[off:])
			if n <= 0 {
				return false
			}
			off += n
			batch[i].End = int64(uint64(batch[i].Start) + uint64(unzigzag(u)))
		}
		return off == len(p)
	default:
		return false
	}
	return true
}

// referenceGatherColumn is referenceDecodeColumn at the rows in sel
// alone, as the filtered decode did it before the kernels: row sel[j]'s
// value goes to batch[j]; a delta or latency column is walked from its
// first row to the last selected one.
func referenceGatherColumn(f *columnarFrame, col int, sel []uint16, batch []collect.TraceTuple) bool {
	p := f.col[col]
	w := colRawWidth[col]
	switch f.enc[col] {
	case colEncRaw:
		if len(p) != int(f.count)*w {
			return false
		}
		for j, i := range sel {
			setColValue(&batch[j], col, readColValue(p[int(i)*w:], col))
		}
	case colEncDict:
		n, vals, idx, ok := splitDict(p, col)
		if !ok || len(idx) != int(f.count) {
			return false
		}
		for j, i := range sel {
			ix := int(idx[i])
			if ix >= n {
				return false
			}
			setColValue(&batch[j], col, readColValue(vals[ix*w:], col))
		}
	case colEncDelta:
		var prev uint64
		off := 0
		for i, j := 0, 0; j < len(sel); i++ {
			u, n := binary.Uvarint(p[off:])
			if n <= 0 {
				return false
			}
			off += n
			prev += uint64(unzigzag(u))
			if i == int(sel[j]) {
				setColValue(&batch[j], col, prev)
				j++
			}
		}
	case colEncLatency:
		if col != colEnd {
			return false
		}
		off := 0
		for i, j := 0, 0; j < len(sel); i++ {
			u, n := binary.Uvarint(p[off:])
			if n <= 0 {
				return false
			}
			off += n
			if i == int(sel[j]) {
				batch[j].End = int64(uint64(batch[j].Start) + uint64(unzigzag(u)))
				j++
			}
		}
	default:
		return false
	}
	return true
}

// columnFrame is a count-row block whose column col carries payload p
// under encoding enc, its CRC filled in; the other columns are empty.
// The column decodes look at nothing else.
func columnFrame(count, col int, enc byte, p []byte) columnarFrame {
	f := columnarFrame{count: uint32(count)}
	f.enc[col], f.col[col], f.n[col], f.crc[col] = enc, p, uint32(len(p)), crc32.ChecksumIEEE(p)
	return f
}

// kernelsDiffer decodes column col of f through the kernels and the
// reference — whole, then at the rows in sel — over tuples whose Start
// is starts (a latency column adds to it), and describes the first
// difference in ok or in a decoded value; "" when they agree.
func kernelsDiffer(f *columnarFrame, col int, sel []uint16, starts []int64) string {
	n := int(f.count)
	var d blockDecoder
	d.grow(n)
	want := make([]collect.TraceTuple, n)
	for i := range want {
		want[i].Start, d.batch[i].Start = starts[i], starts[i]
	}
	got, wantOK := d.decodeColumn(f, col), referenceDecodeColumn(f, col, want)
	if got != wantOK {
		return fmt.Sprintf("whole %s column: kernel ok=%v, reference ok=%v", colName[col], got, wantOK)
	}
	for i := 0; wantOK && i < n; i++ {
		if g, w := colValue(&d.batch[i], col), colValue(&want[i], col); g != w {
			return fmt.Sprintf("whole %s column: row %d = %d, reference %d", colName[col], i, g, w)
		}
	}
	if len(sel) == 0 {
		return "" // a filtered decode never gathers zero rows
	}
	want = want[:len(sel)]
	for j, i := range sel {
		want[j].Start, d.batch[j].Start = starts[i], starts[i]
	}
	got, wantOK = d.gatherColumn(f, col, sel), referenceGatherColumn(f, col, sel, want)
	if got != wantOK {
		return fmt.Sprintf("%s column at %d rows: kernel ok=%v, reference ok=%v", colName[col], len(sel), got, wantOK)
	}
	for j := 0; wantOK && j < len(sel); j++ {
		if g, w := colValue(&d.batch[j], col), colValue(&want[j], col); g != w {
			return fmt.Sprintf("%s column at %d rows: row %d = %d, reference %d", colName[col], len(sel), sel[j], g, w)
		}
	}
	return ""
}

// selections are the row selections each case is gathered under: all
// rows, the first, the last, every other one, and one in the middle.
func selections(n int) map[string][]uint16 {
	out := map[string][]uint16{"first": {0}, "last": {uint16(n - 1)}, "middle": {uint16(n / 2)}}
	for i := 0; i < n; i++ {
		out["all"] = append(out["all"], uint16(i))
		if i%2 == 1 {
			out["odd"] = append(out["odd"], uint16(i))
		}
	}
	return out
}

// TestColumnKernelsMatchReference holds the column kernels to the
// per-value decode they replaced: every encoding of every column, as
// the encoder writes it (the raw fallback of a block with more than 256
// distinct values included), and CRC-valid payloads no encoder writes.
// Whole and under each selection, the kernels must report the same ok
// as the reference and, when it is true, the same values.
func TestColumnKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4202))
	starts := make([]int64, MaxBlockTuples)
	for i := range starts {
		starts[i] = rng.Int63() - rng.Int63()
	}
	type block struct {
		name   string
		tuples []collect.TraceTuple
	}
	wide := make([]collect.TraceTuple, 300)
	for i := range wide {
		wide[i] = collect.TraceTuple{ECID: rng.Uint32(), Op: paths.OpKind(i), Ret: int16(i - 150), Seq: rng.Uint32(), Start: rng.Int63() - rng.Int63(), End: rng.Int63()}
	}
	extreme := []collect.TraceTuple{
		{ECID: math.MaxUint32, Op: math.MaxUint16, Ret: math.MinInt16, Seq: math.MaxUint32, Start: math.MinInt64, End: math.MaxInt64},
		{Start: math.MaxInt64, End: math.MinInt64},
		{Seq: 1 << 31, Start: -1, End: 1},
	}
	var enc columnarEncoder
	for _, b := range []block{
		{"benchmark-shaped", benchReply(rng, 0)[:256]},
		{"more-than-256-distinct", wide},
		{"extreme-stamps", extreme},
		{"one-tuple", extreme[:1]},
	} {
		fr, ok := frameColumnarBlock(enc.encodeBlock(b.tuples))
		if !ok {
			t.Fatalf("%s: encoded block does not frame", b.name)
		}
		if b.name == "more-than-256-distinct" && fr.enc[colECID] != colEncRaw {
			t.Fatalf("%s: ECID encoding %d, want raw", b.name, fr.enc[colECID])
		}
		st := make([]int64, len(b.tuples))
		for i := range st {
			st[i] = b.tuples[i].Start
		}
		for col := 0; col < numColumns; col++ {
			for sname, sel := range selections(len(b.tuples)) {
				if msg := kernelsDiffer(&fr, col, sel, st); msg != "" {
					t.Errorf("%s, %s rows: %s", b.name, sname, msg)
				}
			}
		}
	}

	varint := func(vals ...uint64) []byte {
		var p []byte
		for _, v := range vals {
			p = binary.AppendUvarint(p, v)
		}
		return p
	}
	overflow := append(bytes.Repeat([]byte{0xff}, 10), 0x01) // 11 bytes, past 64 bits
	dict := func(n int, w int, idx ...byte) []byte {
		p := binary.LittleEndian.AppendUint16(nil, uint16(n))
		p = append(p, make([]byte, n*w)...)
		for e := 0; e < n; e++ {
			p[2+e*w] = byte(e + 1)
		}
		return append(p, idx...)
	}
	type columnCase struct {
		name       string
		count, col int
		enc        byte
		p          []byte
	}
	cases := []columnCase{
		{"delta-largest-block", MaxBlockTuples, colSeq, colEncDelta, make([]byte, MaxBlockTuples)},
		{"latency-largest-block", MaxBlockTuples, colEnd, colEncLatency, make([]byte, MaxBlockTuples)},
		{"delta-1-2-3-4-byte-values", 4, colStart, colEncDelta, varint(zigzag(-3), zigzag(200), zigzag(-40_000), zigzag(9_000_000))},
		{"delta-10-byte-value", 2, colSeq, colEncDelta, varint(1, math.MaxUint64)},
		{"latency-every-width", 4, colEnd, colEncLatency, varint(zigzag(5), zigzag(-700), zigzag(100_000), zigzag(math.MinInt64))},
		{"delta-truncated-last-varint", 3, colStart, colEncDelta, append(varint(2, 4), 0x80)},
		{"delta-truncated-3-byte-varint", 2, colSeq, colEncDelta, append(varint(2), 0x80, 0x80)},
		{"latency-truncated-last-varint", 2, colEnd, colEncLatency, append(varint(300), 0xff)},
		{"delta-overflowing-varint", 2, colStart, colEncDelta, append(varint(6), overflow...)},
		{"latency-overflowing-varint", 2, colEnd, colEncLatency, append(varint(6), overflow...)},
		{"delta-trailing-bytes", 2, colSeq, colEncDelta, append(varint(2, 2), 0x00)},
		{"latency-trailing-bytes", 2, colEnd, colEncLatency, append(varint(2, 2), 0x05, 0x06)},
		{"delta-short-by-a-value", 3, colStart, colEncDelta, varint(2, 2)},
		{"latency-on-start", 2, colStart, colEncLatency, varint(2, 2)},
		{"dict-index-at-n", 4, colECID, colEncDict, dict(2, 4, 0, 1, 2, 0)},
		{"dict-index-255", 3, colOp, colEncDict, dict(3, 2, 0, 255, 1)},
		{"dict-last-index-bad", 3, colRet, colEncDict, dict(1, 2, 0, 0, 1)},
		{"dict-256-entries", 3, colOp, colEncDict, dict(256, 2, 0, 255, 128)},
		{"dict-257-entries", 3, colOp, colEncDict, dict(257, 2, 0, 1, 2)},
		{"dict-zero-entries", 2, colECID, colEncDict, dict(0, 4, 0, 0)},
		{"dict-short-table", 2, colECID, colEncDict, dict(3, 4)[:9]},
		{"dict-short-header", 1, colRet, colEncDict, []byte{1}},
		{"dict-too-few-indexes", 3, colECID, colEncDict, dict(2, 4, 0, 1)},
		{"dict-too-many-indexes", 2, colECID, colEncDict, dict(2, 4, 0, 1, 1)},
		{"dict-on-start", 3, colStart, colEncDict, dict(2, 8, 1, 0, 1)},
		{"raw-short", 3, colSeq, colEncRaw, make([]byte, 11)},
		{"raw-long", 3, colOp, colEncRaw, make([]byte, 7)},
		{"raw-end", 2, colEnd, colEncRaw, binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, math.MaxUint64), 1)},
		{"unknown-encoding", 2, colSeq, colEncLatency + 1, varint(1, 1)},
	}
	// Values of every varint width, one to ten bytes, in a random order,
	// so each width is met with every other one behind it and the word
	// read ahead of a value holds bytes of the next ones.
	var mixed []uint64
	for i := 0; i < 400; i++ {
		mixed = append(mixed, rng.Uint64()>>rng.Intn(64))
	}
	cases = append(cases,
		columnCase{"delta-mixed-widths", len(mixed), colStart, colEncDelta, varint(mixed...)},
		columnCase{"latency-mixed-widths", len(mixed), colEnd, colEncLatency, varint(mixed...)})
	for _, c := range cases {
		f := columnFrame(c.count, c.col, c.enc, c.p)
		for sname, sel := range selections(c.count) {
			if msg := kernelsDiffer(&f, c.col, sel, starts); msg != "" {
				t.Errorf("%s, %s rows: %s", c.name, sname, msg)
			}
		}
	}
}

// FuzzDecodeColumn feeds the column kernels and the per-value reference
// the same arbitrary payload bytes, under any encoding byte, column and
// row count, whole and at an arbitrary row selection (bit i of pick,
// cycled, selects row i): they must agree on ok and, when it is true,
// on every value.
func FuzzDecodeColumn(f *testing.F) {
	var enc columnarEncoder
	fr, _ := frameColumnarBlock(enc.encodeBlock(benchReply(rand.New(rand.NewSource(4203)), 0)[:100]))
	for col := 0; col < numColumns; col++ {
		f.Add(fr.col[col], fr.enc[col], uint8(col), uint16(100), []byte{0x5a, 0x01}, int64(7))
	}
	f.Add([]byte{0x80, 0x80, 0x80, 0x80}, byte(colEncDelta), uint8(colStart), uint16(1), []byte{1}, int64(0))
	f.Add(append(bytes.Repeat([]byte{0xff}, 10), 1), byte(colEncLatency), uint8(colEnd), uint16(1), []byte{}, int64(-1))
	f.Add([]byte{2, 0, 1, 0, 2, 0, 0, 1, 2}, byte(colEncDict), uint8(colOp), uint16(3), []byte{0xff}, int64(0))
	f.Fuzz(func(t *testing.T, p []byte, encoding, col uint8, count uint16, pick []byte, seed int64) {
		n := 1 + int(count)%1024
		c := int(col) % numColumns
		starts := make([]int64, n)
		rng := rand.New(rand.NewSource(seed))
		for i := range starts {
			starts[i] = rng.Int63() - rng.Int63()
		}
		var sel []uint16
		for i := 0; i < n && len(pick) > 0; i++ {
			if pick[i/8%len(pick)]>>(i%8)&1 != 0 {
				sel = append(sel, uint16(i))
			}
		}
		fr := columnFrame(n, c, encoding%(colEncLatency+2), p)
		if msg := kernelsDiffer(&fr, c, sel, starts); msg != "" {
			t.Fatal(msg)
		}
	})
}
