package wire

import (
	"bytes"
	"math"
	"testing"
)

// sample holds one field of every kind the Codec carries.
type sample struct {
	u8    uint8
	u16   uint16
	u32   uint32
	u64   uint64
	i16   int16
	i32   int32
	i64   int64
	f32   float32
	f64   float64
	n     int
	ok    bool
	name  string
	raw   []byte
	words []uint16
}

func (s *sample) walk(c *Codec) {
	c.U8(&s.u8)
	c.U16(&s.u16)
	c.U32(&s.u32)
	c.U64(&s.u64)
	c.I16(&s.i16)
	c.I32(&s.i32)
	c.I64(&s.i64)
	c.F32(&s.f32)
	c.F64(&s.f64)
	c.Int(&s.n)
	c.Bool(&s.ok)
	c.Pad(3)
	c.Str(&s.name)
	c.Raw(&s.raw, 2)
	List(c, &s.words, 2, (*Codec).U16)
	c.CRC32(0)
}

// TestLayout pins the byte layout every field kind writes, and that a
// read of those bytes gives the fields back.
func TestLayout(t *testing.T) {
	in := sample{
		u8: 0x01, u16: 0x0302, u32: 0x07060504, u64: 0x0f0e0d0c0b0a0908,
		i16: -2, i32: -3, i64: -4, f32: 1.5, f64: -0.25, n: -5, ok: true,
		name: "ab", raw: []byte{0xee, 0xff}, words: []uint16{0x1234},
	}
	w := Writer(nil)
	in.walk(&w)
	want := []byte{
		0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f,
		0xfe, 0xff, 0xfd, 0xff, 0xff, 0xff, 0xfc, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		0x00, 0x00, 0xc0, 0x3f, 0, 0, 0, 0, 0, 0, 0xd0, 0xbf, 0xfb, 0xff, 0xff, 0xff, 0x01,
		0, 0, 0, 0x02, 0x00, 'a', 'b', 0xee, 0xff,
		0x01, 0x00, 0x00, 0x00, 0x34, 0x12,
	}
	got := w.Bytes()
	if len(got) != len(want)+4 || !bytes.Equal(got[:len(want)], want) {
		t.Fatalf("layout:\n got %x\nwant %x + crc", got, want)
	}

	var out sample
	r := Reader(got)
	out.walk(&r)
	if r.Err() != nil || r.Pos() != len(got) {
		t.Fatalf("read: err %v at %d of %d", r.Err(), r.Pos(), len(got))
	}
	if out.u64 != in.u64 || out.i16 != in.i16 || out.i64 != in.i64 || out.f32 != in.f32 || out.f64 != in.f64 ||
		out.n != in.n || !out.ok || out.name != in.name || !bytes.Equal(out.raw, in.raw) || len(out.words) != 1 || out.words[0] != 0x1234 {
		t.Fatalf("read back %+v, want %+v", out, in)
	}
}

// TestWriteTouchesOnlyItsField: a header walked into room reserved in
// front of a payload that already sits behind it leaves the payload as
// it was, and Rest adopts that payload in place.
func TestWriteTouchesOnlyItsField(t *testing.T) {
	const header = 1 + 2 + 8 + 4
	frame := make([]byte, header, 64)
	payload := append(frame[header:], "payload bytes"...)
	c := Writer(frame[:0])
	var (
		status uint8 = 0
		ret    int16 = -1
		value  int64 = math.MaxInt64
		n            = uint32(len(payload))
	)
	c.U8(&status)
	c.I16(&ret)
	c.I64(&value)
	c.U32(&n)
	if string(payload) != "payload bytes" {
		t.Fatalf("header write clobbered the payload: %q", payload)
	}
	c.Rest(&payload)
	if got := c.Bytes(); &got[header] != &payload[0] || string(got[header:]) != "payload bytes" {
		t.Fatal("Rest copied a payload that already sat at the tail")
	}
}

// TestReadFailsCleanly: every truncation of a valid walk fails, reads
// nothing past its input, and a flipped byte fails the checksum.
func TestReadFailsCleanly(t *testing.T) {
	in := sample{name: "xyz", raw: []byte{9, 9}, words: []uint16{1, 2, 3}}
	w := Writer(nil)
	in.walk(&w)
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		var out sample
		r := Reader(full[:cut])
		if out.walk(&r); r.Err() == nil {
			t.Fatalf("read of %d of %d bytes succeeded", cut, len(full))
		}
	}
	flipped := append([]byte(nil), full...)
	flipped[3] ^= 0x40
	var out sample
	r := Reader(flipped)
	if out.walk(&r); r.Err() == nil {
		t.Fatal("flipped byte passed the checksum")
	}
}

// TestFill32 overwrites exactly the four bytes at its offset.
func TestFill32(t *testing.T) {
	c := Writer(nil)
	var a, b, z uint32 = 1, 0, 3
	c.U32(&a)
	c.U32(&b)
	c.U32(&z)
	c.Fill32(4, 0xaabbccdd)
	want := []byte{1, 0, 0, 0, 0xdd, 0xcc, 0xbb, 0xaa, 3, 0, 0, 0}
	if !bytes.Equal(c.Bytes(), want) {
		t.Fatalf("got %x, want %x", c.Bytes(), want)
	}
}

// record is the shape of a fixed result record.
type record struct {
	id    uint32
	kind  uint8
	count uint64
}

func (r *record) walk(c *Codec) {
	c.U32(&r.id)
	c.U8(&r.kind)
	c.Pad(3)
	c.U64(&r.count)
}

// TestRecordIntoStackScratch: a record walked into a stack array's room
// allocates nothing — no Codec method makes its caller's buffer escape.
func TestRecordIntoStackScratch(t *testing.T) {
	r := record{id: 7, kind: 2, count: 1 << 40}
	allocs := testing.AllocsPerRun(100, func() {
		var scratch [16]byte
		c := Writer(scratch[:0])
		r.walk(&c)
		if len(c.Bytes()) != 16 {
			panic("short record")
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per record", allocs)
	}
}

// node is a nested list element: at least 2 + 4 bytes encoded.
type node struct {
	name string
	kids []uint32
}

const nodeMin = 2 + 4

func nodeWalk(c *Codec, n *node) {
	c.Str(&n.name)
	List(c, &n.kids, 4, (*Codec).U32)
}

// FuzzCodec feeds arbitrary bytes to counted, nested lists. A read never
// panics and never allocates past its input: no list makes more elements
// than the bytes behind its count hold at the element's minimum size. A
// read that succeeds re-encodes to exactly the bytes it consumed.
func FuzzCodec(f *testing.F) {
	w := Writer(nil)
	nodes := []node{{name: "a", kids: []uint32{1, 2}}, {name: "", kids: nil}, {name: "tree", kids: []uint32{7}}}
	List(&w, &nodes, nodeMin, nodeWalk)
	valid := w.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{1, 0, 0, 0, 0xff, 0xff})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// checked is nodeWalk holding each inner list to the bytes its
		// count had behind it.
		checked := func(c *Codec, n *node) {
			c.Str(&n.name)
			left := len(c.buf) - c.Pos() - 4
			List(c, &n.kids, 4, (*Codec).U32)
			if len(n.kids) > 0 && len(n.kids)*4 > left {
				t.Fatalf("%d kids made from %d bytes", len(n.kids), left)
			}
		}
		var got []node
		r := Reader(data)
		List(&r, &got, nodeMin, checked)
		if len(got) > 0 && len(got)*nodeMin > len(data)-4 {
			t.Fatalf("%d nodes made from %d bytes", len(got), len(data)-4)
		}
		if r.Err() != nil {
			return
		}
		re := Writer(nil)
		List(&re, &got, nodeMin, nodeWalk)
		if !bytes.Equal(re.Bytes(), data[:r.Pos()]) {
			t.Fatalf("re-encoded %x, consumed %x", re.Bytes(), data[:r.Pos()])
		}
	})
}
