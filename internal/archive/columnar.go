package archive

import (
	"encoding/binary"
	"hash/crc32"

	"eventspace/internal/collect"
	"eventspace/internal/paths"
	"eventspace/internal/wire"
)

// Columnar (version 2) block layout, declared by columnarFrame.walk.
// Instead of count × 28-byte row tuples, a block stores the batch column
// by column so that each column can use the encoding its values actually
// need.
//
// Columns are fixed: ECID, Op, Ret, Seq, Start, End. Each payload
// carries its own CRC so a reader can validate just the columns a query
// needs — the block-skip fast path checksums only the dictionary-coded
// ECID/Op columns before deciding whether the rest of the block is
// worth decoding at all.
//
// Encodings:
//
//	raw     fixed-width little-endian values (the row layout, columnized)
//	dict    u16 value count, the distinct values at fixed width in first-
//	        appearance order, then count × u8 indexes. Chosen when a
//	        column has at most 256 distinct values — always true in
//	        practice for ECID, Op and Ret.
//	delta   zigzag-varint difference from the previous value (first value
//	        from zero). Chosen for Seq and Start, which are near-
//	        monotonic, so deltas are tiny.
//	latency varint of End-Start per tuple (End only): the latency is
//	        orders of magnitude smaller than the absolute stamp.
//
// All arithmetic is wrapping uint64, so every int64/uint32 value round-
// trips exactly regardless of overflow; the fuzzer pins this down with
// adversarial stamps.
const (
	colECID = iota
	colOp
	colRet
	colSeq
	colStart
	colEnd
	numColumns
)

const (
	colEncRaw     = 0
	colEncDict    = 1
	colEncDelta   = 2
	colEncLatency = 3

	v2BlockHeaderSize = 12
	v2DirEntrySize    = 9
	v2DirSize         = numColumns * v2DirEntrySize
	v2MaxDictEntries  = 256
)

// colRawWidth is each column's fixed-width encoding size in bytes.
var colRawWidth = [numColumns]int{4, 2, 2, 4, 8, 8}

// colValue extracts one column of a tuple as a uint64 (narrower columns
// are zero-extended; signed ones carry their bit pattern).
func colValue(t *collect.TraceTuple, col int) uint64 {
	switch col {
	case colECID:
		return uint64(t.ECID)
	case colOp:
		return uint64(uint16(t.Op))
	case colRet:
		return uint64(uint16(t.Ret))
	case colSeq:
		return uint64(t.Seq)
	case colStart:
		return uint64(t.Start)
	default:
		return uint64(t.End)
	}
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

// appendColValue appends v at the column's fixed width.
func appendColValue(dst []byte, col int, v uint64) []byte {
	switch colRawWidth[col] {
	case 2:
		return binary.LittleEndian.AppendUint16(dst, uint16(v))
	case 4:
		return binary.LittleEndian.AppendUint32(dst, uint32(v))
	default:
		return binary.LittleEndian.AppendUint64(dst, v)
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

// zigzag folds sign into the low bit so small negatives varint-encode
// small; unzigzag inverts it.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// dictSlots sizes the encoder's value table: a power of two at least
// twice the dictionary limit, so a probe sequence always ends at a free
// slot.
const dictSlots = 2 * v2MaxDictEntries

// dictSlot is one entry of the value table. A slot belongs to the column
// being encoded only while its gen equals the encoder's.
type dictSlot struct {
	val uint64
	gen uint32
	idx uint8
}

// columnarEncoder turns tuple batches into version-2 blocks. All its
// scratch is reused across blocks, so a warm encoder appending to a
// buffer with room allocates nothing on the write path. Not safe for
// concurrent use; the writer owns one under its lock.
//
// Dictionary columns are built without a hash map. A pull reply is a
// concatenation of per-collector drains, so ECID, Op and Ret equal the
// previous tuple's almost every time: a one-entry memo answers those,
// and only the first tuple of a run probes the table — a fixed
// open-addressed array whose slots carry the generation they were
// written in, so starting a column is one increment, never a clear.
type columnarEncoder struct {
	col   [numColumns][]byte       // per-column payload scratch
	vals  [v2MaxDictEntries]uint64 // dictionary values in first-appearance order
	idx   []uint8                  // the column's per-tuple dictionary indexes
	gen   uint32                   // generation of the column being encoded
	slots [dictSlots]dictSlot
}

// dictHome is the slot a value's probe sequence starts at: the top bits
// of a Fibonacci hash, so neither consecutive ids nor values sharing
// their low bits pile up.
func dictHome(v uint64) uint32 { return uint32(v * 0x9e3779b97f4a7c15 >> 55) }

// dictIndexes is the one pass over a dictionary column: it finds each
// tuple's dictionary index (memo, then table), storing it in idx —
// which is len(tuples) long — and the distinct values, in
// first-appearance order, in e.vals[:n]. The 257th distinct value
// abandons the pass: ok=false.
//
//lint:hotpath three columns of every appended tuple; one probe per run, none per repeat
func (e *columnarEncoder) dictIndexes(tuples []collect.TraceTuple, col int, idx []uint8) (n int, ok bool) {
	if e.gen++; e.gen == 0 {
		// The counter wrapped: a slot last written 2^32 columns ago
		// would pass for live. Forget them all; zero is never live.
		e.slots = [dictSlots]dictSlot{}
		e.gen = 1
	}
	var prev uint64
	var prevIdx uint8
	for i := range tuples {
		v := colValue(&tuples[i], col)
		if v != prev || n == 0 {
			h := dictHome(v)
			for e.slots[h].gen == e.gen && e.slots[h].val != v {
				h = (h + 1) % dictSlots
			}
			s := &e.slots[h]
			if s.gen != e.gen {
				if n == v2MaxDictEntries {
					return n, false
				}
				*s = dictSlot{val: v, gen: e.gen, idx: uint8(n)}
				e.vals[n] = v
				n++
			}
			prev, prevIdx = v, s.idx
		}
		idx[i] = prevIdx
	}
	return n, true
}

// encodeDictOrRaw writes the column dictionary-coded — u16 count, the
// values, then the indexes dictIndexes kept in scratch — falling back
// to raw fixed-width values when the batch has more than 256 distinct
// values. Returns the encoding chosen.
func (e *columnarEncoder) encodeDictOrRaw(tuples []collect.TraceTuple, col int) byte {
	if cap(e.idx) < len(tuples) {
		e.idx = make([]uint8, len(tuples))
	}
	idx := e.idx[:len(tuples)]
	n, ok := e.dictIndexes(tuples, col, idx)
	if !ok {
		return e.encodeRaw(tuples, col)
	}
	p := e.col[col][:0]
	p = binary.LittleEndian.AppendUint16(p, uint16(n))
	for _, v := range e.vals[:n] {
		p = appendColValue(p, col, v)
	}
	e.col[col] = append(p, idx...)
	return colEncDict
}

// encodeRaw writes the column as fixed-width values.
func (e *columnarEncoder) encodeRaw(tuples []collect.TraceTuple, col int) byte {
	p := e.col[col][:0]
	for i := range tuples {
		p = appendColValue(p, col, colValue(&tuples[i], col))
	}
	e.col[col] = p
	return colEncRaw
}

// encodeDelta writes the column as zigzag-varint differences from the
// previous value (wrapping, so arbitrary values round-trip).
func (e *columnarEncoder) encodeDelta(tuples []collect.TraceTuple, col int) byte {
	p := e.col[col][:0]
	var prev uint64
	for i := range tuples {
		v := colValue(&tuples[i], col)
		p = binary.AppendUvarint(p, zigzag(int64(v-prev)))
		prev = v
	}
	e.col[col] = p
	return colEncDelta
}

// encodeLatency writes the End column as zigzag-varints of End-Start.
func (e *columnarEncoder) encodeLatency(tuples []collect.TraceTuple) byte {
	p := e.col[colEnd][:0]
	for i := range tuples {
		d := uint64(tuples[i].End) - uint64(tuples[i].Start)
		p = binary.AppendUvarint(p, zigzag(int64(d)))
	}
	e.col[colEnd] = p
	return colEncLatency
}

// columnarFrame is a version-2 block: its fixed front — header and
// directory — and its column payloads, which a read slices out of the
// segment image without checksumming or decoding them.
type columnarFrame struct {
	count, colBytes, dirCRC uint32
	enc                     [numColumns]byte
	n, crc                  [numColumns]uint32 // payload lengths and CRCs
	col                     [numColumns][]byte
	size                    int64 // total framed size, header included
}

// walk is the block's one declaration:
//
//	off  size  field
//	  0     4  tuple count
//	  4     4  column-area bytes (directory + payloads)
//	  8     4  CRC32(directory)
//	 12    54  directory: 6 × (encoding u8, payload len u32, CRC32 u32)
//	 66     …  column payloads, in column order, back to back
func (f *columnarFrame) walk(c *wire.Codec) {
	c.U32(&f.count)
	c.U32(&f.colBytes)
	c.U32(&f.dirCRC)
	for col := range f.enc {
		c.U8(&f.enc[col])
		c.U32(&f.n[col])
		c.U32(&f.crc[col])
	}
	for col := range f.col {
		c.Raw(&f.col[col], int(f.n[col]))
	}
}

// appendBlock assembles one version-2 block at the end of dst and
// returns the extended slice: the writer collects the blocks of one
// call behind each other and hands them to the file in one write.
func (e *columnarEncoder) appendBlock(dst []byte, tuples []collect.TraceTuple) []byte {
	f := columnarFrame{count: uint32(len(tuples)), colBytes: v2DirSize}
	f.enc[colECID] = e.encodeDictOrRaw(tuples, colECID)
	f.enc[colOp] = e.encodeDictOrRaw(tuples, colOp)
	f.enc[colRet] = e.encodeDictOrRaw(tuples, colRet)
	f.enc[colSeq] = e.encodeDelta(tuples, colSeq)
	f.enc[colStart] = e.encodeDelta(tuples, colStart)
	f.enc[colEnd] = e.encodeLatency(tuples)
	for col, p := range e.col {
		f.col[col], f.n[col], f.crc[col] = p, uint32(len(p)), crc32.ChecksumIEEE(p)
		f.colBytes += uint32(len(p))
	}
	at := len(dst) + v2BlockHeaderSize
	c := wire.Writer(dst)
	f.walk(&c)
	c.Fill32(at-4, crc32.ChecksumIEEE(c.Bytes()[at:at+v2DirSize]))
	return c.Bytes()
}

// frameColumnarBlock locates the next version-2 block at the start of
// rest. It validates bounds and the directory CRC only — cheap enough
// to run on every block — leaving per-column CRCs to the decode (or the
// skip check) so untouched columns cost nothing. ok=false means a torn
// or corrupt tail.
func frameColumnarBlock(rest []byte) (f columnarFrame, ok bool) {
	c := wire.Reader(rest)
	f.walk(&c)
	f.size = int64(c.Pos())
	if c.Err() != nil || f.count == 0 || f.count > MaxBlockTuples || f.size != v2BlockHeaderSize+int64(f.colBytes) ||
		crc32.ChecksumIEEE(rest[v2BlockHeaderSize:v2BlockHeaderSize+v2DirSize]) != f.dirCRC {
		return f, false
	}
	for _, enc := range f.enc {
		if enc > colEncLatency {
			return f, false
		}
	}
	return f, true
}

// Columns is a set of tuple fields: the projection a batch scan asks
// the block decoder for (Reader.ScanBatches).
type Columns uint8

// One bit per tuple field, in column order.
const (
	ColECID Columns = 1 << iota
	ColOp
	ColRet
	ColSeq
	ColStart
	ColEnd

	AllColumns Columns = 1<<numColumns - 1
)

// blockDecoder decodes blocks into a reused tuple batch, so a scan's
// per-block cost is bounds checks and column reads, not allocation. The
// returned batches alias dec.batch: valid until the next decode. Not
// safe for concurrent use; each scan owns one.
type blockDecoder struct {
	batch []collect.TraceTuple
	dict  []uint64
}

// decodeColumnar validates a framed version-2 block and decodes the
// columns in cols into the reused batch; the other fields of the
// returned tuples hold whatever an earlier block left there. ok=false
// is a torn or corrupt block.
func (d *blockDecoder) decodeColumnar(f *columnarFrame, cols Columns) (batch []collect.TraceTuple, ok bool) {
	if cap(d.batch) < int(f.count) {
		d.batch = make([]collect.TraceTuple, f.count)
	}
	d.batch = d.batch[:f.count]
	return d.batch, decodeColumns(f, cols, d.batch)
}

// decodeColumns is the masked block decode. Every column's CRC is
// checked whatever the mask — a block is torn for a projected reader
// exactly when it is torn for a full one — and only the decode of the
// columns outside cols is skipped. Any failure (column CRC, short
// payload, bad dictionary index, varint overrun) reports false.
//
//lint:hotpath once per scanned block; the per-value loops of every read
func decodeColumns(f *columnarFrame, cols Columns, batch []collect.TraceTuple) bool {
	if cols&ColEnd != 0 {
		cols |= ColStart // latency-coded End is rebuilt from the block's Start
	}
	for c := 0; c < numColumns; c++ {
		if crc32.ChecksumIEEE(f.col[c]) != f.crc[c] {
			return false
		}
		if cols&(1<<c) != 0 && !decodeColumn(f, c, batch) {
			return false
		}
	}
	return true
}

// decodeColumn decodes one checksummed column into the batch. Column
// order matters only for latency, which reconstructs End from the
// already-decoded Start.
func decodeColumn(f *columnarFrame, col int, batch []collect.TraceTuple) bool {
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

// dictValues checksums the column and decodes just its dictionary
// values (not the per-tuple indexes) into the decoder's scratch. The
// CRC check first is what keeps the skip path honest: a corrupt block
// is never silently skipped — the check fails, the caller falls through
// to the full decode, and the decode reports the tear.
func (d *blockDecoder) dictValues(f *columnarFrame, col int) ([]uint64, bool) {
	p := f.col[col]
	if crc32.ChecksumIEEE(p) != f.crc[col] {
		return nil, false
	}
	n, vals, _, ok := splitDict(p, col)
	if !ok {
		return nil, false
	}
	w := colRawWidth[col]
	d.dict = d.dict[:0]
	for i := 0; i < n; i++ {
		d.dict = append(d.dict, readColValue(vals[i*w:], col))
	}
	return d.dict, true
}

// skipColumnar reports whether the block's dictionaries prove no tuple
// in it can match q, without decoding the block. This is the columnar
// pushdown: a query for one collector or one op kind touches only the
// dictionary bytes of blocks it skips.
func (d *blockDecoder) skipColumnar(f *columnarFrame, q *Query) bool {
	if len(q.ECIDs) > 0 && f.enc[colECID] == colEncDict {
		if vals, ok := d.dictValues(f, colECID); ok && !dictHasECID(vals, q.ECIDs) {
			return true
		}
	}
	if len(q.Ops) > 0 && f.enc[colOp] == colEncDict {
		if vals, ok := d.dictValues(f, colOp); ok && !dictHasOp(vals, q.Ops) {
			return true
		}
	}
	return false
}

func dictHasECID(vals []uint64, ecids []uint32) bool {
	for _, v := range vals {
		for _, id := range ecids {
			if uint32(v) == id {
				return true
			}
		}
	}
	return false
}

func dictHasOp(vals []uint64, ops []paths.OpKind) bool {
	for _, v := range vals {
		for _, op := range ops {
			if paths.OpKind(uint16(v)) == op {
				return true
			}
		}
	}
	return false
}
