package pastset

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// refTuple is a slot of the reference's ring: a payload stamped with its
// sequence number.
type refTuple struct {
	Seq  uint64
	Data []byte
}

// refElement is the ring-backed element this package shipped before an
// element became its arena: a ring of tuples whose slots permanently
// alias their arena slot, the slot found by dividing the sequence number,
// and drains that copy record by record. It is kept as the reference the
// element is held equal to, over the surface the element still has.
type refElement struct {
	name    string
	cap     int
	recSize int
	ring    []refTuple
	arena   []byte
	first   uint64
	next    uint64
	lost    uint64
	closed  bool
}

func newRefElement(name string, capacity, recSize int) *refElement {
	e := &refElement{name: name, cap: capacity, recSize: recSize, ring: make([]refTuple, capacity)}
	e.arena = make([]byte, capacity*recSize)
	for i := range e.ring {
		e.ring[i].Data = e.arena[i*recSize : (i+1)*recSize : (i+1)*recSize]
	}
	return e
}

func (e *refElement) WriteCopy(data []byte) (uint64, error) {
	if len(data) != e.recSize {
		return 0, fmt.Errorf("%w: %q: %d bytes, want %d", ErrRecordSize, e.name, len(data), e.recSize)
	}
	if e.closed {
		return 0, ErrClosed
	}
	seq := e.next
	if int(e.next-e.first) == e.cap {
		e.first++
		e.lost++
	}
	e.next++
	slot := &e.ring[seq%uint64(e.cap)]
	slot.Seq = seq
	copy(slot.Data, data)
	return seq, nil
}

func (e *refElement) Stats() Stats {
	return Stats{Written: e.next, Overwritten: e.lost, Retained: int(e.next - e.first), Capacity: e.cap}
}

func (e *refElement) Latest(dst []byte) ([]byte, error) {
	if e.next == e.first {
		if e.closed {
			return dst, ErrClosed
		}
		return dst, ErrEmpty
	}
	return append(dst, e.at(e.next-1).Data...), nil
}

func (e *refElement) Close() { e.closed = true }

// at returns the retained tuple with sequence number seq, which its slot
// must still be stamped with.
func (e *refElement) at(seq uint64) refTuple {
	t := e.ring[seq%uint64(e.cap)]
	if t.Seq != seq {
		panic(fmt.Sprintf("reference ring: slot of %d holds %d", seq, t.Seq))
	}
	return t
}

type refCursor struct {
	e       *refElement
	pos     uint64
	read    uint64
	skipped uint64
}

func (e *refElement) NewCursor() *refCursor      { return &refCursor{e: e, pos: e.first} }
func (e *refElement) NewCursorAtEnd() *refCursor { return &refCursor{e: e, pos: e.next} }

func (c *refCursor) advance() {
	if c.pos < c.e.first {
		c.skipped += c.e.first - c.pos
		c.pos = c.e.first
	}
}

func (c *refCursor) DrainBytesInto(dst []byte, max, recSize int) ([]byte, int, error) {
	c.advance()
	n := int(c.e.next - c.pos)
	if max > 0 && n > max {
		n = max
	}
	if n == 0 {
		return dst, 0, nil
	}
	if c.e.recSize != recSize {
		return dst, 0, fmt.Errorf("%w: %q: element records %d bytes, reader wants %d",
			ErrRecordSize, c.e.name, c.e.recSize, recSize)
	}
	need := len(dst) + n*recSize
	if cap(dst) < need {
		grown := make([]byte, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	for i := 0; i < n; i++ {
		t := c.e.at(c.pos)
		dst = append(dst, t.Data...)
		c.pos++
	}
	c.read += uint64(n)
	return dst, n, nil
}

// sameErr holds two errors equal by sentinel and by text.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	for _, s := range []error{ErrClosed, ErrEmpty, ErrRecordSize} {
		if errors.Is(a, s) != errors.Is(b, s) {
			return false
		}
	}
	return a.Error() == b.Error()
}

// TestFixedElementMatchesRingReference drives the element and the
// ring-backed reference with one seeded operation stream — writes across
// many wraparounds, cursors made at the start, at the end and lagging
// past capacity, drains with and without a batch cap, Latest, Stats and
// a Close part-way — and holds payload bytes, assigned sequence numbers,
// Read/Skipped and errors equal after every step.
func TestFixedElementMatchesRingReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			capacity := 3 + rng.Intn(14)
			rs := 1 + rng.Intn(9)
			steps := 400 * capacity // far more than three wraparounds of writes
			got, err := NewElementFixed("x", capacity, rs)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefElement("x", capacity, rs)

			type pair struct {
				name string
				got  *Cursor
				ref  *refCursor
			}
			// "lag" is read so rarely that it falls behind the retained
			// window again and again; "end" is created mid-stream below.
			cursors := []*pair{
				{"start", got.NewCursor(), ref.NewCursor()},
				{"lag", got.NewCursor(), ref.NewCursor()},
			}
			pick := func() *pair {
				if p := cursors[rng.Intn(len(cursors))]; p.name != "lag" || rng.Intn(8*capacity) == 0 {
					return p
				}
				return cursors[0]
			}
			rec := make([]byte, rs)
			written := 0
			for step := 0; step < steps; step++ {
				if step == steps/3 {
					cursors = append(cursors, &pair{"end", got.NewCursorAtEnd(), ref.NewCursorAtEnd()})
				}
				if step == steps-steps/10 {
					got.Close()
					ref.Close()
				}
				switch op := rng.Intn(20); {
				case op < 11: // write, in bursts so the window wraps between reads
					for burst := 1 + rng.Intn(capacity); burst > 0; burst-- {
						rng.Read(rec)
						size := rs
						if rng.Intn(50) == 0 {
							size = rng.Intn(rs) // a caller bug: wrong record size
						}
						gs, gerr := got.WriteCopy(rec[:size])
						rseq, rerr := ref.WriteCopy(rec[:size])
						if gs != rseq || !sameErr(gerr, rerr) {
							t.Fatalf("step %d: WriteCopy = %d, %v; reference %d, %v", step, gs, gerr, rseq, rerr)
						}
						if gerr == nil {
							written++
						}
					}
				case op < 18:
					p := pick()
					max := 0
					if rng.Intn(2) == 0 {
						max = 1 + rng.Intn(capacity)
					}
					want := rs
					if rng.Intn(25) == 0 {
						want = rs + 1 // a reader configured for another record size
					}
					prefix := []byte("hdr")
					// The destination is sometimes roomy, sometimes short:
					// what is appended may not depend on it.
					gdst := append(make([]byte, 0, rng.Intn(2*capacity*rs+4)), prefix...)
					gb, gn, gerr := p.got.DrainBytesInto(gdst, max, want)
					rb, rn, rerr := p.ref.DrainBytesInto(append([]byte(nil), prefix...), max, want)
					if gn != rn || !sameErr(gerr, rerr) || !bytes.Equal(gb, rb) {
						t.Fatalf("step %d: %s.DrainBytesInto(max %d, rec %d) = %d records %x, %v; reference %d records %x, %v",
							step, p.name, max, want, gn, gb, gerr, rn, rb, rerr)
					}
				case op < 19:
					gb, gerr := got.Latest([]byte("hdr"))
					rb, rerr := ref.Latest([]byte("hdr"))
					if !sameErr(gerr, rerr) || !bytes.Equal(gb, rb) {
						t.Fatalf("step %d: Latest = %x, %v; reference %x, %v", step, gb, gerr, rb, rerr)
					}
				default:
					if gs, rs := got.Stats(), ref.Stats(); gs != rs {
						t.Fatalf("step %d: Stats = %+v, reference %+v", step, gs, rs)
					}
				}
				for _, p := range cursors {
					if p.got.Read() != p.ref.read || p.got.Skipped() != p.ref.skipped {
						t.Fatalf("step %d: %s read/skipped = %d/%d, reference %d/%d",
							step, p.name, p.got.Read(), p.got.Skipped(), p.ref.read, p.ref.skipped)
					}
				}
			}
			if written < 3*capacity {
				t.Fatalf("only %d writes into capacity %d: the driver never wrapped three times", written, capacity)
			}
			for _, p := range cursors {
				if p.name == "lag" && p.ref.skipped == 0 {
					t.Fatalf("the lagging cursor never fell behind the retained window")
				}
			}
		})
	}
}
