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
//
// Columns are decoded by kernels, one tight loop per encoding, and no
// value goes through a per-value switch or call: a dictionary column is
// filled straight from its table, one loop per field; a raw, delta or
// latency column is decoded into the lane, one uint64 per row, and then
// stored into its field by one loop per column (put). A filtered decode
// gathers each column into the lane at the selected rows alone.
type blockDecoder struct {
	batch []collect.TraceTuple
	sel   []uint16                 // a filtered decode's selection vector: the rows it keeps, ascending
	lane  []uint64                 // the column being decoded, one value per row (or per selected row)
	dict  [v2MaxDictEntries]uint64 // a dictionary column's values, decoded once per block
	keep  [v2MaxDictEntries]uint8  // a filter column's keep table: 1 for each dictionary entry the query keeps
}

// grow sizes the batch, the selection vector and the lane for an
// n-tuple block.
func (d *blockDecoder) grow(n int) {
	if cap(d.batch) < n {
		d.batch = make([]collect.TraceTuple, n)
		d.sel = make([]uint16, n)
		d.lane = make([]uint64, n)
	}
	d.batch, d.sel, d.lane = d.batch[:n], d.sel[:n], d.lane[:n]
}

// decodeColumnar validates a framed version-2 block and decodes the
// columns in cols, every row, into the reused batch; the other fields of
// the returned tuples hold whatever an earlier block left there.
// ok=false is a torn or corrupt block.
func (d *blockDecoder) decodeColumnar(f *columnarFrame, cols Columns) (batch []collect.TraceTuple, ok bool) {
	d.grow(int(f.count))
	return d.batch, checksums(f) && d.decodeColumns(f, cols)
}

// checksums reports whether every column payload matches its CRC. Both
// decodes check all six whatever they decode, so a block is torn for a
// projected or filtered reader exactly when it is torn for a full one.
func checksums(f *columnarFrame) bool {
	for c := range f.col {
		if crc32.ChecksumIEEE(f.col[c]) != f.crc[c] {
			return false
		}
	}
	return true
}

// decodeColumns is the masked whole-block decode of checksummed
// columns into d.batch: only the columns in cols are decoded. Any
// failure (short payload, bad dictionary index, varint overrun or
// trailing bytes) reports false.
//
//lint:hotpath once per block of an unfiltered scan; the column kernels of every full read
func (d *blockDecoder) decodeColumns(f *columnarFrame, cols Columns) bool {
	if cols&ColEnd != 0 {
		cols |= ColStart // latency-coded End is rebuilt from the block's Start
	}
	for c := 0; c < numColumns; c++ {
		if cols&(1<<c) != 0 && !d.decodeColumn(f, c) {
			return false
		}
	}
	return true
}

// decodeColumn decodes column col, every row, into d.batch, checking
// that the payload holds exactly the values the block's count calls
// for. Column order matters only for latency, which rebuilds End from
// the rows' already-decoded Start.
func (d *blockDecoder) decodeColumn(f *columnarFrame, col int) bool {
	p, w, lane := f.col[col], colRawWidth[col], d.lane
	switch f.enc[col] {
	case colEncRaw:
		if len(p) != len(lane)*w {
			return false
		}
		rawLane(p, w, lane)
	case colEncDict:
		return d.decodeDict(p, col)
	case colEncDelta, colEncLatency:
		if off, ok := varints(p, lane, f.enc[col], col); !ok || off != len(p) {
			return false
		}
	default:
		return false
	}
	put(col, f.enc[col], lane, d.batch)
	return true
}

// decodeDict decodes a dictionary column, every row, into d.batch: the
// table once, then one loop filling the lane by index, stored by put.
func (d *blockDecoder) decodeDict(p []byte, col int) bool {
	n, idx, ok := d.dictionary(p, col)
	if !ok || len(idx) != len(d.batch) {
		return false
	}
	lane, dict := d.lane[:len(idx)], &d.dict
	for i, ix := range idx {
		if int(ix) >= n {
			return false
		}
		lane[i] = dict[ix]
	}
	put(col, colEncDict, lane, d.batch)
	return true
}

// selectColumnar is the late-materializing decode behind a filtered
// scan (q.columns() != 0). It checksums all six columns, decodes only
// q's filter columns to select the rows, from row from on, that q keeps,
// and then decodes the columns in cols at the selected rows alone,
// compacted to the front of the batch. A block with no selected row
// decodes nothing more. A value no selected row needs is checksummed but
// never decoded, so its structure is not verified — the rule a
// projection already follows for whole columns. ok=false is a torn or
// corrupt block.
func (d *blockDecoder) selectColumnar(f *columnarFrame, q *Query, cols Columns, from int) (batch []collect.TraceTuple, ok bool) {
	d.grow(int(f.count))
	if !checksums(f) {
		return nil, false
	}
	sel, have, ok := d.selectRows(f, q, from)
	if !ok {
		return nil, false
	}
	if cols&ColEnd != 0 {
		cols |= ColStart // latency-coded End is rebuilt from the rows' Start
	}
	return d.batch[:len(sel)], d.gatherColumns(f, cols&^have, sel)
}

// selectRows builds the block's selection vector: the rows from row
// from on, narrowed by each of q's filter columns in turn — ECID, Op,
// then Start — so a later filter reads only the rows an earlier one
// kept. The Start filter leaves the kept rows' Start in the batch,
// compacted like the rows; have reports the columns left there.
//
//lint:hotpath once per scanned block of a filtered scan; its filter loops touch every candidate row
func (d *blockDecoder) selectRows(f *columnarFrame, q *Query, from int) (sel []uint16, have Columns, ok bool) {
	sel = d.sel[:len(d.sel)-from]
	for j := range sel {
		sel[j] = uint16(from + j)
	}
	filters := q.columns()
	for _, col := range [...]int{colECID, colOp} {
		if filters&(1<<col) != 0 && len(sel) > 0 {
			if sel, ok = d.keepRows(f, col, q, sel); !ok {
				return nil, 0, false
			}
		}
	}
	if filters&ColStart == 0 || len(sel) == 0 {
		return sel, 0, true
	}
	starts, ok := d.gatherLane(f, colStart, sel)
	if !ok {
		return nil, 0, false
	}
	lo, hi := q.stamps()
	k := 0
	for j, i := range sel {
		if s := int64(starts[j]); s >= lo && s <= hi {
			d.batch[k].Start, sel[k] = s, i
			k++
		}
	}
	return sel[:k], ColStart, true
}

// keepRows narrows sel to the rows whose value in col (ECID or Op) q
// keeps. A dictionary column costs one keep-table lookup per candidate
// row; a raw one (more than 256 distinct values in the block) decodes
// each candidate and looks it up in q's set.
func (d *blockDecoder) keepRows(f *columnarFrame, col int, q *Query, sel []uint16) ([]uint16, bool) {
	k := 0
	if f.enc[col] != colEncDict {
		vals, ok := d.gatherLane(f, col, sel)
		if !ok {
			return nil, false
		}
		for j, i := range sel {
			if q.keeps(col, vals[j]) {
				sel[k] = i
				k++
			}
		}
		return sel[:k], true
	}
	n, idx, _, ok := d.keepTable(f, col, q)
	if !ok || len(idx) != int(f.count) {
		return nil, false
	}
	for _, i := range sel {
		ix := idx[i]
		if int(ix) >= n {
			return nil, false
		}
		sel[k] = i
		k += int(d.keep[ix])
	}
	return sel[:k], true
}

// gatherColumns decodes the columns in cols at the rows in sel into
// d.batch[:len(sel)]: decodeColumns compacted to the selected rows.
//
//lint:hotpath once per scanned block of a filtered scan; the column kernels at the rows it keeps
func (d *blockDecoder) gatherColumns(f *columnarFrame, cols Columns, sel []uint16) bool {
	if len(sel) == 0 {
		return true
	}
	for c := 0; c < numColumns; c++ {
		if cols&(1<<c) != 0 && !d.gatherColumn(f, c, sel) {
			return false
		}
	}
	return true
}

// gatherColumn is decodeColumn at the rows in sel alone: row sel[j]'s
// value goes to d.batch[j]. Latency needs those rows' Start there
// already.
func (d *blockDecoder) gatherColumn(f *columnarFrame, col int, sel []uint16) bool {
	lane, ok := d.gatherLane(f, col, sel)
	if ok {
		put(col, f.enc[col], lane, d.batch[:len(sel)])
	}
	return ok
}

// gatherLane decodes column col at the rows in sel, which holds at least
// one, into the lane: row sel[j]'s value goes to lane[j], a latency
// column's as End-Start. A raw or dictionary column is read at just
// those rows (and only their dictionary indexes are checked); a delta or
// latency one is decoded from its first row to the last selected one,
// and not checked for bytes past it.
func (d *blockDecoder) gatherLane(f *columnarFrame, col int, sel []uint16) ([]uint64, bool) {
	p, w, lane := f.col[col], colRawWidth[col], d.lane[:len(sel)]
	switch f.enc[col] {
	case colEncRaw:
		if len(p) != int(f.count)*w {
			return nil, false
		}
		rawAt(p, w, sel, lane)
	case colEncDict:
		n, idx, ok := d.dictionary(p, col)
		if !ok || len(idx) != int(f.count) {
			return nil, false
		}
		for j, i := range sel {
			ix := idx[i]
			if int(ix) >= n {
				return nil, false
			}
			lane[j] = d.dict[ix]
		}
	case colEncDelta, colEncLatency:
		rows := d.lane[:int(sel[len(sel)-1])+1]
		if _, ok := varints(p, rows, f.enc[col], col); !ok {
			return nil, false
		}
		for j, i := range sel {
			lane[j] = rows[i] // in place: sel ascends, so i >= j
		}
	default:
		return nil, false
	}
	return lane, true
}

// rawLane reads len(lane) fixed-width values of w bytes from p.
func rawLane(p []byte, w int, lane []uint64) {
	switch w {
	case 2:
		for i := range lane {
			lane[i] = uint64(binary.LittleEndian.Uint16(p[2*i:]))
		}
	case 4:
		for i := range lane {
			lane[i] = uint64(binary.LittleEndian.Uint32(p[4*i:]))
		}
	default:
		for i := range lane {
			lane[i] = binary.LittleEndian.Uint64(p[8*i:])
		}
	}
}

// rawAt reads the fixed-width values of w bytes at the rows in sel.
func rawAt(p []byte, w int, sel []uint16, lane []uint64) {
	lane = lane[:len(sel)]
	switch w {
	case 2:
		for j, i := range sel {
			lane[j] = uint64(binary.LittleEndian.Uint16(p[2*int(i):]))
		}
	case 4:
		for j, i := range sel {
			lane[j] = uint64(binary.LittleEndian.Uint32(p[4*int(i):]))
		}
	default:
		for j, i := range sel {
			lane[j] = binary.LittleEndian.Uint64(p[8*int(i):])
		}
	}
}

// varints decodes len(lane) zigzag varints from the front of p into the
// lane and returns the bytes they took: a delta column's values summed
// back up, a latency column's as they are. Values of one to three bytes
// — every Seq delta, and nearly every Start delta and latency — are
// tested and extracted from one little-endian word in registers; longer
// ones, and the last few of a payload, go to binary.Uvarint. ok=false
// is a truncated or overflowing varint, or a latency encoding on a
// column other than End.
func varints(p []byte, lane []uint64, enc byte, col int) (used int, ok bool) {
	if enc == colEncLatency && col != colEnd {
		return 0, false
	}
	q, i := p, 0 // q is what is left of p
	for ; i < len(lane) && len(q) >= 8; i++ {
		var u uint64
		switch x := binary.LittleEndian.Uint64(q); {
		case x&0x80 == 0:
			u, q = x&0x7f, q[1:]
		case x&0x8000 == 0:
			u, q = x&0x7f|x>>1&0x3f80, q[2:]
		case x&0x80_0000 == 0:
			u, q = x&0x7f|x>>1&0x3f80|x>>2&0x1f_c000, q[3:]
		default:
			n := 0
			if u, n = binary.Uvarint(q); n <= 0 {
				return len(p) - len(q), false
			}
			q = q[n:]
		}
		lane[i] = uint64(unzigzag(u))
	}
	for ; i < len(lane); i++ { // the payload's last few values
		u, n := binary.Uvarint(q)
		if n <= 0 {
			return len(p) - len(q), false
		}
		q = q[n:]
		lane[i] = uint64(unzigzag(u))
	}
	if enc == colEncDelta {
		var acc uint64
		for i, v := range lane {
			acc += v
			lane[i] = acc
		}
	}
	return len(p) - len(q), true
}

// put stores a decoded lane into column col of batch, one loop per
// column; a latency lane (enc) becomes End by adding the rows' Start.
func put(col int, enc byte, lane []uint64, batch []collect.TraceTuple) {
	lane = lane[:len(batch)]
	if enc == colEncLatency {
		for i := range batch {
			batch[i].End = batch[i].Start + int64(lane[i])
		}
		return
	}
	switch col {
	case colECID:
		for i := range batch {
			batch[i].ECID = uint32(lane[i])
		}
	case colOp:
		for i := range batch {
			batch[i].Op = paths.OpKind(uint16(lane[i]))
		}
	case colRet:
		for i := range batch {
			batch[i].Ret = int16(uint16(lane[i]))
		}
	case colSeq:
		for i := range batch {
			batch[i].Seq = uint32(lane[i])
		}
	case colStart:
		for i := range batch {
			batch[i].Start = int64(lane[i])
		}
	default:
		for i := range batch {
			batch[i].End = int64(lane[i])
		}
	}
}

// dictionary validates a dictionary payload's framing and decodes its
// value table, once per block, into d.dict[:n]; it returns n and the
// index bytes.
func (d *blockDecoder) dictionary(p []byte, col int) (n int, idx []byte, ok bool) {
	if len(p) < 2 {
		return 0, nil, false
	}
	n = int(binary.LittleEndian.Uint16(p[0:2]))
	w := colRawWidth[col]
	if n == 0 || n > v2MaxDictEntries || len(p) < 2+n*w {
		return 0, nil, false
	}
	rawLane(p[2:2+n*w], w, d.dict[:n])
	return n, p[2+n*w:], true
}

// keepTable fills d.keep from the dictionary of column col (ECID or
// Op): 1 for each entry q keeps, 0 for the rest. It returns the
// dictionary's size and index bytes and whether q keeps any entry;
// ok=false is a malformed dictionary.
func (d *blockDecoder) keepTable(f *columnarFrame, col int, q *Query) (n int, idx []byte, kept, ok bool) {
	n, idx, ok = d.dictionary(f.col[col], col)
	if !ok {
		return 0, nil, false, false
	}
	for e, v := range d.dict[:n] {
		d.keep[e] = 0
		if q.keeps(col, v) {
			d.keep[e] = 1
			kept = true
		}
	}
	return n, idx, kept, true
}

// skipColumnar reports whether the block's dictionaries prove no tuple
// in it can match q, without decoding the block. This is the columnar
// pushdown: a query for one collector or one op kind touches only the
// dictionary bytes of blocks it skips.
//
//lint:hotpath once per block of a filtered scan, skipped or not
func (d *blockDecoder) skipColumnar(f *columnarFrame, q *Query) bool {
	return d.dictExcludes(f, colECID, q) || d.dictExcludes(f, colOp, q)
}

// dictExcludes reports whether col is a dictionary column q filters on
// and q keeps none of its entries. The CRC check first is what keeps the
// skip path honest: a corrupt block is never silently skipped — the
// check fails, the caller falls through to the decode, and the decode
// reports the tear.
func (d *blockDecoder) dictExcludes(f *columnarFrame, col int, q *Query) bool {
	if q.columns()&(1<<col) == 0 || f.enc[col] != colEncDict || crc32.ChecksumIEEE(f.col[col]) != f.crc[col] {
		return false
	}
	_, _, kept, ok := d.keepTable(f, col, q)
	return ok && !kept
}
