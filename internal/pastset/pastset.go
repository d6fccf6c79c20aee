// Package pastset implements the PastSet structured shared memory system
// that the PATHS communication system and EventSpace are layered on.
//
// PastSet (Vinter, 1999) lets threads communicate by reading and writing
// tuples to named shared-memory buffers called elements. This reproduction
// implements the subset the paper's monitoring path depends on, and there
// is one kind of element: a bounded arena of fixed-size records that
// discards the oldest record when a capacity threshold is exceeded, plus
// a per-host registry of them. A write is a mutex and one record-sized
// copy; reads never block — a cursor drains what is retained as at most
// two block copies, and a reader that wants to wait polls on the clock it
// runs under, so this package imports no clock. Bytes are copied in and
// copied out, never shared with a writer or a reader.
//
// The gather-rate accounting central to the paper's Tables 1-3 lives here:
// each element counts tuples written and tuples lost to overwrite, and each
// cursor counts tuples delivered and tuples skipped because the reader fell
// behind the retained window.
package pastset

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Common errors returned by element operations.
var (
	// ErrClosed is returned once an element has been closed and no
	// further tuples will arrive.
	ErrClosed = errors.New("pastset: element closed")
	// ErrEmpty is returned by Latest when nothing is retained.
	ErrEmpty = errors.New("pastset: element empty")
	// ErrExists is returned when creating an element under a taken name.
	ErrExists = errors.New("pastset: element already exists")
	// ErrNotFound is returned when removing an unknown element.
	ErrNotFound = errors.New("pastset: element not found")
	// ErrRecordSize is returned when a payload's size, or the size a
	// reader asks for, does not match the element's record size.
	ErrRecordSize = errors.New("pastset: record size mismatch")
)

// Stats is a snapshot of an element's traffic counters.
type Stats struct {
	Written     uint64 // tuples ever written
	Overwritten uint64 // tuples lost to the bounded-buffer overwrite policy
	Retained    int    // tuples currently held
	Capacity    int
}

// Element is a named bounded buffer of fixed-size records. The zero value
// is not usable; create elements with NewElementFixed or
// Registry.CreateFixed.
type Element struct {
	name    string
	cap     int
	recSize int

	mu     sync.Mutex
	arena  []byte // slot storage: cap * recSize bytes
	first  uint64 // sequence number of the oldest retained tuple
	next   uint64 // sequence number the next write will receive
	wslot  int    // slot the next write lands in: next % cap, counted not divided
	lost   uint64 // tuples discarded by the overwrite policy
	closed bool
}

// NewElementFixed creates a bounded element of recSize-byte records;
// capacity (in records) and recSize must be at least 1. An element is
// its arena and nothing else: WriteCopy copies the record into its slot
// without retaining the caller's buffer, sequence numbers follow from
// the slot's position, and reads copy whole runs of slots back out, so
// the steady-state write path performs no allocation at all and touches
// one cache line of storage (the trace-buffer hot path, DESIGN.md §12).
func NewElementFixed(name string, capacity, recSize int) (*Element, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("pastset: element %q: capacity %d < 1", name, capacity)
	}
	if recSize < 1 {
		return nil, fmt.Errorf("pastset: element %q: record size %d < 1", name, recSize)
	}
	return &Element{name: name, cap: capacity, recSize: recSize, arena: make([]byte, capacity*recSize)}, nil
}

// Name returns the element's name.
func (e *Element) Name() string { return e.name }

// WriteCopy appends one record by copying it into the element's arena,
// discarding the oldest retained record if the element is at capacity,
// and returns the assigned sequence number: the paper's PastSet write, a
// mutex acquisition and a small memory copy. It never retains data —
// callers may reuse the buffer immediately — and performs no allocation;
// together with a stack scratch buffer on the caller's side this makes
// the whole tuple write allocation-free. len(data) must equal the
// element's record size.
//
//lint:hotpath fixed-record write; the no-retention/no-alloc contract collectors rely on
func (e *Element) WriteCopy(data []byte) (uint64, error) {
	if len(data) != e.recSize {
		//lint:allow hotalloc misuse error: a size mismatch is a caller bug, not a per-record path
		return 0, fmt.Errorf("%w: %q: %d bytes, want %d", ErrRecordSize, e.name, len(data), e.recSize)
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return 0, ErrClosed
	}
	seq := e.next
	if int(e.next-e.first) == e.cap {
		// Overwrite the oldest tuple.
		e.first++
		e.lost++
	}
	copy(e.arena[e.wslot*e.recSize:], data)
	e.next++
	if e.wslot++; e.wslot == e.cap {
		e.wslot = 0
	}
	e.mu.Unlock()
	return seq, nil
}

// Len reports the number of retained tuples.
func (e *Element) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return int(e.next - e.first)
}

// Stats returns a snapshot of the element's counters.
func (e *Element) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{
		Written:     e.next,
		Overwritten: e.lost,
		Retained:    int(e.next - e.first),
		Capacity:    e.cap,
	}
}

// Latest appends the newest retained record to dst without consuming
// anything and returns the extended slice. With nothing retained it
// reports ErrEmpty, or ErrClosed once the element is closed.
func (e *Element) Latest(dst []byte) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.next == e.first {
		if e.closed {
			return dst, ErrClosed
		}
		return dst, ErrEmpty
	}
	return e.appendRecords(dst, e.next-1, 1), nil
}

// Close marks the element closed. Subsequent writes fail with ErrClosed;
// what is retained can still be read.
func (e *Element) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
}

// slotOf returns the slot holding the retained sequence number seq,
// counted back from the write slot; caller holds mu.
func (e *Element) slotOf(seq uint64) int {
	slot := e.wslot - int(e.next-seq)
	if slot < 0 {
		slot += e.cap
	}
	return slot
}

// appendRecords appends the n retained records from sequence number seq on
// to dst; caller holds mu. The retained window wraps the arena at most
// once, so this is at most two block copies.
func (e *Element) appendRecords(dst []byte, seq uint64, n int) []byte {
	rs, start := e.recSize, e.slotOf(seq)
	head := n
	if start+n > e.cap {
		head = e.cap - start
	}
	dst = slices.Grow(dst, n*rs)
	dst = append(dst, e.arena[start*rs:(start+head)*rs]...)
	return append(dst, e.arena[:(n-head)*rs]...)
}

// Cursor is a per-reader position into an element's tuple stream. Cursors
// are independent: every reader sees every tuple that is still retained
// when it reads. A cursor that falls behind the retained window skips
// forward to the oldest retained tuple and records the gap.
//
// A Cursor must not be used for reading from multiple goroutines, but the
// Read/Skipped/Rate counters may be sampled concurrently (monitors poll
// gather rates while the reader thread runs).
//
// A read copies records out of the element's arena into the caller's
// destination, never aliases it, so what was appended is the caller's for
// good. Readers that batch and finish with a batch before draining again
// — the monitor and gather loops' shape — run allocation-free once their
// buffer has grown to the working-set size.
type Cursor struct {
	e       *Element
	pos     uint64        // next sequence number to deliver
	read    atomic.Uint64 // tuples delivered through this cursor
	skipped atomic.Uint64 // tuples this cursor missed due to overwrite
}

// NewCursor returns a cursor positioned at the oldest retained tuple.
func (e *Element) NewCursor() *Cursor {
	e.mu.Lock()
	defer e.mu.Unlock()
	return &Cursor{e: e, pos: e.first}
}

// NewCursorAtEnd returns a cursor that will only see tuples written after
// this call.
func (e *Element) NewCursorAtEnd() *Cursor {
	e.mu.Lock()
	defer e.mu.Unlock()
	return &Cursor{e: e, pos: e.next}
}

// advance normalizes the cursor against the retained window; caller holds mu.
func (c *Cursor) advance() {
	if c.pos < c.e.first {
		c.skipped.Add(c.e.first - c.pos)
		c.pos = c.e.first
	}
}

// DrainBytesInto appends the raw payload bytes of up to max unread
// records (max <= 0: all) to dst under a single lock acquisition and
// returns the extended slice plus the record count. recSize must be the
// element's record size; a mismatch drains nothing and is reported. It
// never blocks — an empty drain is a valid result, on a closed element
// too. The destination is caller-owned — a reply frame being built in
// place, or a buffer a pull loop recycles — and the records leave as at
// most two block copies (the window wraps the arena at most once). A
// destination with room for the batch is not reallocated; a short one
// grows as append grows it.
func (c *Cursor) DrainBytesInto(dst []byte, max, recSize int) ([]byte, int, error) {
	c.e.mu.Lock()
	defer c.e.mu.Unlock()
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
	dst = c.e.appendRecords(dst, c.pos, n)
	c.pos += uint64(n)
	c.read.Add(uint64(n))
	return dst, n, nil
}

// Read reports the number of tuples delivered through this cursor.
func (c *Cursor) Read() uint64 { return c.read.Load() }

// Skipped reports the number of tuples this cursor missed because they were
// overwritten before it read them.
func (c *Cursor) Skipped() uint64 { return c.skipped.Load() }

// Rate returns the fraction of the tuple stream this cursor observed:
// delivered / (delivered + skipped). A reader that kept up fully returns 1.
// With no traffic it returns 1 (nothing was missed).
func (c *Cursor) Rate() float64 {
	read := c.read.Load()
	total := read + c.skipped.Load()
	if total == 0 {
		return 1
	}
	return float64(read) / float64(total)
}

// Lag reports how many retained tuples the cursor has not yet delivered.
func (c *Cursor) Lag() int {
	c.e.mu.Lock()
	defer c.e.mu.Unlock()
	pos := c.pos
	if pos < c.e.first {
		pos = c.e.first
	}
	return int(c.e.next - pos)
}

// Registry is a per-host namespace of elements: the host's PastSet server.
type Registry struct {
	mu    sync.RWMutex
	elems map[string]*Element
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{elems: make(map[string]*Element)}
}

// CreateFixed creates and registers a new element (see NewElementFixed).
func (r *Registry) CreateFixed(name string, capacity, recSize int) (*Element, error) {
	e, err := NewElementFixed(name, capacity, recSize)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.elems[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	r.elems[name] = e
	return e, nil
}

// Names returns the registered element names in unspecified order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.elems))
	for n := range r.elems {
		out = append(out, n)
	}
	return out
}

// Remove unregisters and closes the named element.
func (r *Registry) Remove(name string) error {
	r.mu.Lock()
	e, ok := r.elems[name]
	if ok {
		delete(r.elems, name)
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	e.Close()
	return nil
}
