// Package wire is the codec of every fixed binary format in the tree. A
// format is declared by one walk function that lists its fields once,
// in byte order, against a Codec: over a write Codec the walk is the
// format's encoder, over a read Codec its decoder. Integers are
// little-endian; floats are IEEE-754 bit patterns. A write touches only
// its own field's bytes, and a read that runs out of bytes sets Err —
// after which every field reads as zero — and never panics. The package
// imports only the standard library (make leaf-packages).
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Codec walks a format's fields in one direction.
type Codec struct {
	buf []byte
	off int // read cursor
	w   bool
	err error
}

// Writer returns a write walk that appends to buf.
func Writer(buf []byte) Codec { return Codec{buf: buf, w: true} }

// Reader returns a read walk over buf.
func Reader(buf []byte) Codec { return Codec{buf: buf} }

// Writing reports the walk's direction.
func (c *Codec) Writing() bool { return c.w }

// Bytes is a write walk's buffer, everything appended included.
func (c *Codec) Bytes() []byte { return c.buf }

// Err is a read walk's first failure; nil otherwise.
func (c *Codec) Err() error { return c.err }

// Pos is the walk's position: the bytes written so far, or consumed.
func (c *Codec) Pos() int {
	if c.w {
		return len(c.buf)
	}
	return c.off
}

func (c *Codec) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("wire: %s at offset %d", what, c.off)
	}
}

// Next is the n bytes of the next field: a write appends room for them
// and returns it to be filled, a read consumes and returns them (nil once
// the read has failed). Every field is carried by it. A write grows the
// buffer by hand: an append's result stored back into the Codec would
// make every caller's buffer escape, a record's stack scratch included.
func (c *Codec) Next(n int) []byte {
	if c.w {
		at := len(c.buf)
		if cap(c.buf)-at < n {
			grown := make([]byte, at, 2*cap(c.buf)+n)
			copy(grown, c.buf)
			c.buf = grown
		}
		c.buf = c.buf[:at+n]
		return c.buf[at:]
	}
	if c.err == nil && n > len(c.buf)-c.off {
		c.fail("truncated field")
	}
	if c.err != nil {
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

// word carries an n-byte integer: a write stores v, a read returns the
// one it consumed.
func (c *Codec) word(n int, v uint64) uint64 {
	b := c.Next(n)
	switch {
	case b == nil:
		return 0
	case c.w && n == 8:
		binary.LittleEndian.PutUint64(b, v)
	case c.w && n == 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case c.w && n == 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case c.w:
		b[0] = byte(v)
	case n == 8:
		return binary.LittleEndian.Uint64(b)
	case n == 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case n == 2:
		return uint64(binary.LittleEndian.Uint16(b))
	default:
		return uint64(b[0])
	}
	return v
}

// put stores what a read produced; a write leaves the caller's state
// untouched.
func put[T any](c *Codec, dst *T, v T) {
	if !c.w {
		*dst = v
	}
}

// U8 through F64 carry one fixed-width number each.
func (c *Codec) U8(v *uint8)   { put(c, v, uint8(c.word(1, uint64(*v)))) }
func (c *Codec) U16(v *uint16) { put(c, v, uint16(c.word(2, uint64(*v)))) }
func (c *Codec) U32(v *uint32) { put(c, v, uint32(c.word(4, uint64(*v)))) }
func (c *Codec) U64(v *uint64) { put(c, v, c.word(8, *v)) }
func (c *Codec) I16(v *int16)  { put(c, v, int16(c.word(2, uint64(uint16(*v))))) }
func (c *Codec) I32(v *int32)  { put(c, v, int32(c.word(4, uint64(uint32(*v))))) }
func (c *Codec) I64(v *int64)  { put(c, v, int64(c.word(8, uint64(*v)))) }
func (c *Codec) F32(v *float32) {
	put(c, v, math.Float32frombits(uint32(c.word(4, uint64(math.Float32bits(*v))))))
}
func (c *Codec) F64(v *float64) { put(c, v, math.Float64frombits(c.word(8, math.Float64bits(*v)))) }

// Int is a count or bound held as an int: an i32 on the wire.
func (c *Codec) Int(v *int) { put(c, v, int(int32(c.word(4, uint64(uint32(*v)))))) }

// Bool is one byte, 0 or 1 (a read takes any nonzero byte as true).
func (c *Codec) Bool(v *bool) {
	var u uint64
	if *v {
		u = 1
	}
	put(c, v, c.word(1, u) != 0)
}

// Pad is n reserved bytes: written as zero, skipped on a read.
func (c *Codec) Pad(n int) {
	if b := c.Next(n); c.w {
		clear(b)
	}
}

// Str is a string behind its u16 byte length.
func (c *Codec) Str(s *string) {
	n := c.word(2, uint64(len(*s)))
	if b := c.Next(int(n)); c.w {
		copy(b, *s)
	} else if b != nil {
		*s = string(b)
	}
}

// Raw is n bytes whose length the format carries elsewhere: a write
// copies *b (n is len(*b)), a read aliases the next n bytes into it.
func (c *Codec) Raw(b *[]byte, n int) {
	if r := c.Next(n); c.w {
		copy(r, *b)
	} else {
		*b = r
	}
}

// Rest is the bytes that end a frame: a write appends *b (see Extend), a
// read aliases everything that remains into *b — nil when nothing does.
func (c *Codec) Rest(b *[]byte) {
	if c.w {
		c.buf = Extend(c.buf, *b)
	} else if rest := c.Next(len(c.buf) - c.off); len(rest) > 0 {
		*b = rest
	}
}

// Extend appends data to out. Data already sitting at out's tail — a
// payload built in place behind room reserved for its header — is
// adopted where it is; anything else is copied. The two outcomes hold
// the same bytes, so the check is purely a saved copy.
func Extend(out, data []byte) []byte {
	n := len(out)
	if len(data) > 0 && len(data) <= cap(out)-n && &data[0] == &out[:n+1][n] {
		return out[:n+len(data)]
	}
	return append(out, data...)
}

// CRC32 is the IEEE CRC-32 of the walk's bytes from offset from to here:
// a write computes and appends it, a read fails unless the stored one
// matches.
func (c *Codec) CRC32(from int) {
	sum := crc32.ChecksumIEEE(c.buf[from:c.Pos()])
	if got := uint32(c.word(4, uint64(sum))); !c.w && c.err == nil && got != sum {
		c.fail(fmt.Sprintf("checksum %08x over [%d:%d], want %08x", got, from, c.off-4, sum))
	}
}

// Fill32 overwrites the u32 a write walked at offset at: how a length or
// checksum that only the bytes behind it determine is filled in.
func (c *Codec) Fill32(at int, v uint32) { binary.LittleEndian.PutUint32(c.buf[at:at+4], v) }

// Count carries a list's u32 length. A read refuses a count whose
// elements, at no less than minSize encoded bytes apiece, cannot fit in
// the bytes that remain — before anything is allocated, which is what
// keeps a fuzzed input from demanding gigabytes.
func (c *Codec) Count(n, minSize int) int {
	u := c.word(4, uint64(n))
	if !c.w && c.err == nil && u*uint64(minSize) > uint64(len(c.buf)-c.off) {
		c.fail("element count")
	}
	if c.err != nil {
		return 0
	}
	return int(u)
}

// List walks a counted list with elem, one call per element. It is the
// one place a zero count is handled: an empty list reads back as nil.
func List[T any](c *Codec, s *[]T, minSize int, elem func(*Codec, *T)) {
	n := c.Count(len(*s), minSize)
	if !c.w && n > 0 {
		*s = make([]T, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		elem(c, &(*s)[i])
	}
}
