package archive

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"eventspace/internal/collect"
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
