package archive

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"eventspace/internal/collect"
	"eventspace/internal/paths"
)

// colName labels columns in failure messages.
var colName = [numColumns]string{"ecid", "op", "ret", "seq", "start", "end"}

// FuzzSegmentDecode fuzzes the segment parser the reader and the
// crash-safe reopen both rely on, and the block index decoder planned
// scans rely on: arbitrary bytes must never panic, the recovered prefix
// must stay internally consistent (ValidBytes inside the blocks, the
// valid prefix rescanning to the same index and zones), and the block
// index must decode exactly as the field-by-field reference reads it.
func FuzzSegmentDecode(f *testing.F) {
	// Seed: an empty sealed segment, one with two blocks, torn variants
	// of it, intact headers of the retired versions 1 and 2, and sealed
	// segments with their block index, whole and damaged.
	empty := encodeHeader(segmentHeader{ID: 1, Sealed: true})
	f.Add(empty)
	f.Add(retiredHeader(1, 1))
	f.Add(retiredHeader(1, 2))
	var enc columnarEncoder
	var whole []byte
	whole = append(whole, encodeHeader(segmentHeader{ID: 2})...)
	whole = append(whole, enc.encodeBlock([]collect.TraceTuple{
		{ECID: 1, Seq: 0, Start: 10, End: 20},
		{ECID: 2, Seq: 1, Start: 30, End: 40},
	})...)
	whole = append(whole, enc.encodeBlock([]collect.TraceTuple{
		{ECID: 3, Seq: 2, Start: 50, End: 60},
	})...)
	f.Add(whole)
	f.Add(whole[:len(whole)-5])          // torn column payload
	f.Add(whole[:segmentHeaderSize+9])   // torn block header/directory
	f.Add(whole[:segmentHeaderSize-10])  // short header
	f.Add(append([]byte(nil), whole...)) // mutated below by the engine
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)-1] ^= 0xff // column CRC mismatch in the last block
	f.Add(flipped)
	f.Add(append(encodeHeader(segmentHeader{ID: 3, Sealed: true}), whole[segmentHeaderSize:]...))
	// Negative stamps: the writer accepts them, so the index counts them.
	f.Add(append(encodeHeader(segmentHeader{ID: 4}), enc.encodeBlock([]collect.TraceTuple{
		{ECID: 1, Seq: 0, Start: -1, End: 5},
		{ECID: 1, Seq: 1, Start: math.MinInt64, End: math.MaxInt64},
	})...))
	// A version-1 header followed by one of its row blocks (count,
	// payload CRC, one 28-byte tuple).
	row := (&collect.TraceTuple{ECID: 1, Seq: 0, Start: 10, End: 20}).Encode()
	v1 := binary.LittleEndian.AppendUint32(retiredHeader(2, 1), 1)
	v1 = binary.LittleEndian.AppendUint32(v1, crc32.ChecksumIEEE(row))
	f.Add(append(v1, row...))
	// Sealed by the writer, block index and all; then with a zone's bit
	// flipped (the index CRC fails), and with the index cut short.
	dir := f.TempDir()
	w, err := Create(Options{Dir: dir, BlockTuples: 3})
	if err != nil {
		f.Fatal(err)
	}
	if err := w.Append(distinctECIDs(10, 4)); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	sealed, err := os.ReadFile(filepath.Join(dir, segmentFileName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed)
	bad := append([]byte(nil), sealed...)
	bad[len(bad)-20] ^= 0x04
	f.Add(bad)
	f.Add(sealed[:len(sealed)-7])

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := scanSegment(data)
		if err != nil {
			return // corrupt header: rejected outright
		}
		end := res.Header.blocksEnd(int64(len(data)))
		if res.ValidBytes < segmentHeaderSize || res.ValidBytes > end {
			t.Fatalf("ValidBytes %d outside [%d, %d]", res.ValidBytes, segmentHeaderSize, end)
		}
		if !res.Torn && res.ValidBytes != end {
			t.Fatalf("not torn but ValidBytes %d < %d", res.ValidBytes, end)
		}
		// The recovered index and zones count exactly what the intact
		// frames hold, whatever the tuples' stamps — a reopen seals
		// these counts into the header and block index, and cursors skip
		// by them.
		var framed uint64
		var blocks uint32
		for off := int64(segmentHeaderSize); off < res.ValidBytes; {
			fr, ok := frameColumnarBlock(data[off:res.ValidBytes])
			if !ok {
				t.Fatalf("valid prefix does not frame at offset %d", off)
			}
			if z := res.Zones[blocks]; z.at != off || z.size != fr.size || z.Tuples != uint64(fr.count) {
				t.Fatalf("zone %d = %+v, frame at %d holds %d tuples in %d bytes", blocks, z, off, fr.count, fr.size)
			}
			framed += uint64(fr.count)
			blocks++
			off += fr.size
		}
		if res.Index.Tuples != framed || res.Index.Blocks != blocks || len(res.Zones) != int(blocks) {
			t.Fatalf("index counts %d tuples in %d blocks (%d zones), frames hold %d in %d",
				res.Index.Tuples, res.Index.Blocks, len(res.Zones), framed, blocks)
		}
		// The recovered prefix must itself rescan identically — the
		// invariant behind truncate-and-continue reopens.
		again, err := scanSegment(data[:res.ValidBytes])
		if err != nil {
			t.Fatalf("rescan of valid prefix failed: %v", err)
		}
		if again.Torn || again.Index != res.Index || !reflect.DeepEqual(again.Zones, res.Zones) {
			t.Fatalf("rescan diverged: torn=%v index=%+v want %+v", again.Torn, again.Index, res.Index)
		}
		// The block index a planned scan reads: present only when it
		// fills the sealed file's tail, and decoded exactly as the
		// reference reads it.
		h := res.Header
		var zones []blockZone
		ok := false
		if h.Sealed && h.IndexBytes > 0 && end+int64(h.IndexBytes) == int64(len(data)) {
			zones, ok = decodeBlockIndex(data[end:], &h.Index, end, nil)
		}
		ref, refOK := referenceZones(data)
		if ok != refOK {
			t.Fatalf("block index decodes %v, reference %v", ok, refOK)
		}
		for i := range ref {
			z, r := zones[i], ref[i]
			if z.at != r.at || z.size != r.size || z.Tuples != r.tuples || z.MinECID != r.minECID ||
				z.MaxECID != r.maxECID || z.MinStamp != r.minStart || z.MaxStamp != r.maxStart {
				t.Fatalf("zone %d = %+v, reference %+v", i, z, r)
			}
		}
	})
}

// FuzzColumnarRoundTrip fuzzes the columnar block codec's losslessness:
// any tuple batch — the fuzz input is carved into 28-byte rows, so
// every field takes adversarial values, overflow stamps included — must
// encode, frame and decode back exactly, its dictionary columns byte
// for byte what the map-based reference encoder writes. It also draws a
// column mask and a byte to damage: the masked decode must agree with
// the full one on the masked fields, and fail on exactly the blocks the
// full one fails on. And it draws a Query — an ECID set and an op set,
// each one value taken from the batch and one made up, stamp bounds,
// and a first row as a cursor would leave it: the selective decode must
// return exactly the rows the full decode and the reference match keep,
// in order, fail on exactly the blocks the full decode fails on, and a
// block the dictionaries skip must hold no row the query keeps.
func FuzzColumnarRoundTrip(f *testing.F) {
	seed := make([]byte, 3*collect.TupleSize)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	f.Add(seed, uint8(ColECID|ColEnd), uint16(0), uint8(3), uint32(1), uint16(0), int64(0), int64(0))
	var zeros [collect.TupleSize]byte
	f.Add(zeros[:], uint8(0), uint16(0), uint8(0), uint32(0), uint16(0), int64(1), int64(0))
	f.Add(seed, uint8(ColSeq), uint16(70), uint8(1), uint32(2), uint16(0), int64(0), int64(0)) // damage inside a column payload
	adversarial := collect.TraceTuple{
		ECID: math.MaxUint32, Op: paths.OpKind(math.MaxUint16), Ret: math.MinInt16,
		Seq: math.MaxUint32, Start: math.MinInt64, End: math.MaxInt64,
	}
	f.Add(adversarial.Encode(), uint8(AllColumns), uint16(0), uint8(2), uint32(7), uint16(9), int64(-4), int64(math.MaxInt64))
	// Runs of collectors under a stamp window, from the third row on.
	var runs []byte
	for i := 0; i < 40; i++ {
		tu := collect.TraceTuple{ECID: uint32(1 + i/8), Op: paths.OpKind(i % 3), Seq: uint32(i), Start: int64(1000 * i), End: int64(1000*i + 300)}
		runs = append(runs, tu.Encode()...)
	}
	f.Add(runs, uint8(ColEnd), uint16(0), uint8(1|2<<2), uint32(10), uint16(1), int64(4000), int64(30_000))
	f.Add(runs, uint8(ColEnd), uint16(0), uint8(1), uint32(10), uint16(0), int64(0), int64(0)) // End without a Start filter

	f.Fuzz(func(t *testing.T, data []byte, mask uint8, damage uint16, filter uint8, ecid uint32, op uint16, lo, hi int64) {
		n := len(data) / collect.TupleSize
		if n == 0 {
			return
		}
		if n > MaxBlockTuples {
			n = MaxBlockTuples
		}
		tuples := make([]collect.TraceTuple, n)
		for i := range tuples {
			row := data[i*collect.TupleSize:]
			tuples[i] = collect.TraceTuple{
				ECID:  binary.LittleEndian.Uint32(row[0:4]),
				Op:    paths.OpKind(binary.LittleEndian.Uint16(row[4:6])),
				Ret:   int16(binary.LittleEndian.Uint16(row[6:8])),
				Seq:   binary.LittleEndian.Uint32(row[8:12]),
				Start: int64(binary.LittleEndian.Uint64(row[12:20])),
				End:   int64(binary.LittleEndian.Uint64(row[20:28])),
			}
		}
		// The encoder has already encoded the batch's second half: its
		// value table holds that block's slots, stale, when the batch
		// itself goes through — and the dictionary columns must still be
		// the map-based reference's.
		var enc columnarEncoder
		enc.encodeBlock(tuples[n/2:])
		block := enc.encodeBlock(tuples)
		sameAsReference(t, block, tuples)
		fr, ok := frameColumnarBlock(block)
		if !ok {
			t.Fatal("encoded block does not frame")
		}
		if fr.size != int64(len(block)) {
			t.Fatalf("frame consumed %d of %d bytes", fr.size, len(block))
		}
		var dec blockDecoder
		got, ok := dec.decodeColumnar(&fr, AllColumns)
		if !ok {
			t.Fatal("encoded block does not decode")
		}
		for i := range tuples {
			if got[i] != tuples[i] {
				t.Fatalf("tuple %d round-tripped to %+v, want %+v", i, got[i], tuples[i])
			}
		}

		// A second decoder, so the fields outside the mask are not
		// leftovers of the full decode. damage 0 leaves the block whole;
		// anything else flips one byte past the directory, which only a
		// column CRC can notice.
		cols := Columns(mask) & AllColumns
		if damage != 0 {
			at := v2BlockHeaderSize + v2DirSize + int(damage)%(len(block)-v2BlockHeaderSize-v2DirSize)
			block[at] ^= 0x5a
			if fr, ok = frameColumnarBlock(block); !ok {
				t.Fatal("payload damage broke the framing")
			}
		}
		_, fullOK := dec.decodeColumnar(&fr, AllColumns)
		var masked blockDecoder
		proj, maskedOK := masked.decodeColumnar(&fr, cols)
		if maskedOK != fullOK || fullOK != (damage == 0) {
			t.Fatalf("damage %d: full decode ok=%v, mask %06b ok=%v", damage, fullOK, cols, maskedOK)
		}
		for i := 0; maskedOK && i < n; i++ {
			for c := 0; c < numColumns; c++ {
				if cols&(1<<c) != 0 && colValue(&proj[i], c) != colValue(&tuples[i], c) {
					t.Fatalf("mask %06b: tuple %d %s = %d, want %d", cols, i, colName[c],
						colValue(&proj[i], c), colValue(&tuples[i], c))
				}
			}
		}

		q := Query{MinStamp: lo, MaxStamp: hi}
		if filter&1 != 0 {
			q.ECIDs = []uint32{tuples[int(ecid)%n].ECID, ecid}
		}
		if filter&2 != 0 {
			q.Ops = []paths.OpKind{tuples[int(op)%n].Op, paths.OpKind(op)}
		}
		if q.columns() == 0 {
			return // the zero Query takes the whole-block decode above
		}
		from := int(filter>>2) % n
		var want []collect.TraceTuple
		for i := from; i < n; i++ {
			if q.match(&tuples[i]) {
				want = append(want, tuples[i])
			}
		}
		var sd blockDecoder
		if fullOK && sd.skipColumnar(&fr, &q) {
			for i := range tuples {
				if q.match(&tuples[i]) {
					t.Fatalf("%+v: the dictionaries skip a block whose tuple %d matches", q, i)
				}
			}
		}
		read := cols | q.columns()
		got, selOK := sd.selectColumnar(&fr, &q, read, from)
		if selOK != fullOK {
			t.Fatalf("damage %d, %+v: full decode ok=%v, selective ok=%v", damage, q, fullOK, selOK)
		}
		if !selOK {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("%+v from row %d: %d rows selected, the reference keeps %d", q, from, len(got), len(want))
		}
		for i := range want {
			for c := 0; c < numColumns; c++ {
				if read&(1<<c) != 0 && colValue(&got[i], c) != colValue(&want[i], c) {
					t.Fatalf("%+v mask %06b: row %d %s = %d, want %d", q, read, i, colName[c],
						colValue(&got[i], c), colValue(&want[i], c))
				}
			}
		}
	})
}

// FuzzReplayMeta feeds the replay arbitrary collectors.meta bytes — the
// one input a replay takes from outside the archive's CRCs — and
// arbitrary tuples. The contract: ReadMeta or NewReplay refuses the
// sidecar, or the replay takes every tuple without panicking, and its
// snapshot pair restores into a fresh replay over the same sidecar and
// snapshots back to the same pair.
func FuzzReplayMeta(f *testing.F) {
	dir := f.TempDir()
	sidecar := func(infos []CollectorInfo) []byte {
		if err := WriteMeta(dir, infos); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, MetaFileName))
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	var tuples []byte
	for i, tu := range replayRound([2]uint32{1, 2}, 10, 1, [2]int64{100, 150}) {
		tuples = append(tuples, tu.Encode()...)
		f.Add(sidecar(replayMeta()[:3+i]), tuples)
	}
	bad := replayMeta()
	bad[1].Contributor = -1 // misread as the collective until refused
	f.Add(sidecar(bad), tuples)
	bad = append(replayMeta(), CollectorInfo{ID: 2, Role: collect.RoleContributor, Tree: "T", Node: "n1", Contributor: 2})
	f.Add(sidecar(bad), tuples)
	f.Add([]byte("1\t1\t0\t\"T\"\t\"n\"\t\"c\"\n"), tuples)

	f.Fuzz(func(t *testing.T, meta, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, MetaFileName), meta, 0o644); err != nil {
			t.Fatal(err)
		}
		infos, err := ReadMeta(dir)
		if err != nil {
			return
		}
		rep, err := NewReplay(infos, 4)
		if err != nil {
			return
		}
		// Every listed collector writes a round, then the fuzzed tuples
		// go in: the roster's ports see traffic whatever the bytes hold.
		for _, in := range infos {
			rep.Feed(collect.TraceTuple{ECID: in.ID, Op: paths.OpWrite, Seq: 1, Start: int64(in.ID), End: int64(in.ID) + 9})
		}
		for ; len(raw) >= collect.TupleSize; raw = raw[collect.TupleSize:] {
			tu, err := collect.Decode(raw[:collect.TupleSize])
			if err != nil {
				t.Fatal(err)
			}
			rep.Feed(tu)
		}
		rep.Tree()
		la, stats := rep.State()
		again, err := NewReplay(infos, 4)
		if err != nil {
			t.Fatalf("second build over the same sidecar: %v", err)
		}
		if err := again.Restore(la, stats); err != nil {
			t.Fatalf("snapshot refused by a replay over the same sidecar: %v", err)
		}
		la2, stats2 := again.State()
		if !reflect.DeepEqual(la2, la) || !reflect.DeepEqual(stats2, stats) {
			t.Fatal("restored replay snapshots to a different pair")
		}
	})
}
