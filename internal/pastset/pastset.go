// Package pastset implements the PastSet structured shared memory system
// that the PATHS communication system and EventSpace are layered on.
//
// PastSet (Vinter, 1999) lets threads communicate by reading and writing
// tuples to named shared-memory buffers called elements. This reproduction
// implements the subset the paper depends on: bounded elements that discard
// the oldest tuple when a capacity threshold is exceeded, blocking writes
// (mutex + memory copy), blocking reads with per-reader cursors, and a
// per-host registry of elements.
//
// Elements come in two kinds. A variable element keeps a ring of Tuples
// and retains the payload slices it is handed. A fixed-record element
// (trace buffers, the monitors' intermediate result buffers) keeps one
// byte arena and nothing else: a write is lock, one record-sized copy,
// unlock; a batch read is at most two block copies; payload bytes are
// copied on both sides and never shared with a writer or a reader.
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

	"eventspace/internal/vclock"
)

// Common errors returned by element operations.
var (
	// ErrClosed is returned once an element has been closed and no
	// further tuples will arrive.
	ErrClosed = errors.New("pastset: element closed")
	// ErrEmpty is returned by non-blocking reads when no tuple is ready.
	ErrEmpty = errors.New("pastset: element empty")
	// ErrExists is returned when creating an element under a taken name.
	ErrExists = errors.New("pastset: element already exists")
	// ErrNotFound is returned when looking up an unknown element.
	ErrNotFound = errors.New("pastset: element not found")
	// ErrNotFixed is returned by fixed-record operations on an element
	// that was not created with a fixed record size.
	ErrNotFixed = errors.New("pastset: element has no fixed record size")
	// ErrRecordSize is returned when a payload's size does not match a
	// fixed element's record size.
	ErrRecordSize = errors.New("pastset: record size mismatch")
)

// Tuple is the unit of storage: an opaque payload stamped with the
// element-assigned sequence number.
//
// Ownership of the payload bytes depends on how the element was created.
// For variable elements (NewElement), payload bytes are owned by the
// element after Write and by the reader after a read; neither side may
// mutate them afterwards. For fixed-record elements (NewElementFixed),
// writes copy into an element-owned arena and reads copy back out: a
// fixed element stores no Tuple at all, the view is synthesised on the
// way out over cursor-owned storage (see Cursor), and writers may freely
// reuse their input buffer — the zero-allocation contract of the
// collector write path.
type Tuple struct {
	Seq  uint64
	Data []byte
}

// Stats is a snapshot of an element's traffic counters.
type Stats struct {
	Written     uint64 // tuples ever written
	Overwritten uint64 // tuples lost to the bounded-buffer overwrite policy
	Retained    int    // tuples currently held
	Capacity    int
}

// Element is a named bounded tuple buffer. The zero value is not usable;
// create elements with NewElement or Registry.Create.
type Element struct {
	name    string
	cap     int
	recSize int // fixed record size; 0 for variable elements

	mu     sync.Mutex
	cond   *vclock.Cond
	ring   []Tuple // slot storage of a variable element (cap tuples)
	arena  []byte  // slot storage of a fixed element (cap * recSize bytes)
	first  uint64  // sequence number of the oldest retained tuple
	next   uint64  // sequence number the next write will receive
	wslot  int     // slot the next write lands in: next % cap, counted not divided
	lost   uint64  // tuples discarded by the overwrite policy
	closed bool
}

func newElement(name string, capacity int) (*Element, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("pastset: element %q: capacity %d < 1", name, capacity)
	}
	e := &Element{name: name, cap: capacity}
	e.cond = vclock.NewCond(&e.mu)
	return e, nil
}

// NewElement creates a bounded element. Capacity must be at least 1.
func NewElement(name string, capacity int) (*Element, error) {
	e, err := newElement(name, capacity)
	if err != nil {
		return nil, err
	}
	e.ring = make([]Tuple, capacity)
	return e, nil
}

// NewElementFixed creates a bounded element whose records all have the
// same size. A fixed element is its arena and nothing else: WriteCopy
// copies the record into its slot without retaining the caller's buffer,
// sequence numbers follow from the slot's position, and reads copy whole
// runs of slots back out, so the steady-state write path performs no
// allocation at all and touches one cache line of storage (the
// trace-buffer hot path, DESIGN.md §12).
func NewElementFixed(name string, capacity, recSize int) (*Element, error) {
	if recSize < 1 {
		return nil, fmt.Errorf("pastset: element %q: record size %d < 1", name, recSize)
	}
	e, err := newElement(name, capacity)
	if err != nil {
		return nil, err
	}
	e.recSize = recSize
	e.arena = make([]byte, capacity*recSize)
	return e, nil
}

// RecordSize reports the element's fixed record size (0: variable).
func (e *Element) RecordSize() int { return e.recSize }

// MustNewElement is NewElement that panics on a bad capacity; for use in
// topology construction where capacities are compile-time constants.
func MustNewElement(name string, capacity int) *Element {
	e, err := NewElement(name, capacity)
	if err != nil {
		panic(err)
	}
	return e
}

// Name returns the element's name.
func (e *Element) Name() string { return e.name }

// Capacity returns the overwrite threshold.
func (e *Element) Capacity() int { return e.cap }

// Write appends a tuple, discarding the oldest retained tuple if the
// element is at capacity, and returns the assigned sequence number.
// This is the paper's blocking PastSet write: a mutex acquisition, a small
// memory copy, and a wakeup of blocked readers.
//
// Variable elements retain data itself; fixed elements copy it into the
// arena (the caller keeps ownership). Hot paths writing to fixed elements
// should prefer WriteCopy, whose argument provably does not escape, so a
// stack-allocated scratch buffer stays on the stack.
func (e *Element) Write(data []byte) (uint64, error) {
	if e.recSize != 0 {
		return e.WriteCopy(data)
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return 0, ErrClosed
	}
	seq, slot := e.advanceLocked()
	e.ring[slot] = Tuple{Seq: seq, Data: data}
	e.cond.Broadcast()
	e.mu.Unlock()
	return seq, nil
}

// WriteCopy appends one fixed-size record by copying it into the
// element's arena. It never retains data — callers may reuse the buffer
// immediately — and performs no allocation; together with a stack scratch
// buffer on the caller's side this makes the whole tuple write
// allocation-free. len(data) must equal the element's record size.
//
//lint:hotpath fixed-record write; the no-retention/no-alloc contract collectors rely on
func (e *Element) WriteCopy(data []byte) (uint64, error) {
	if e.recSize == 0 {
		//lint:allow hotalloc misuse error: fires only on a non-fixed element, never per record
		return 0, fmt.Errorf("%w: %q", ErrNotFixed, e.name)
	}
	if len(data) != e.recSize {
		//lint:allow hotalloc misuse error: a size mismatch is a caller bug, not a per-record path
		return 0, fmt.Errorf("%w: %q: %d bytes, want %d", ErrRecordSize, e.name, len(data), e.recSize)
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return 0, ErrClosed
	}
	seq, slot := e.advanceLocked()
	copy(e.arena[slot*e.recSize:], data)
	e.cond.Broadcast()
	e.mu.Unlock()
	return seq, nil
}

// advanceLocked claims the next sequence number and the slot it is
// stored in, applying the overwrite policy; caller holds mu.
func (e *Element) advanceLocked() (seq uint64, slot int) {
	seq, slot = e.next, e.wslot
	if int(e.next-e.first) == e.cap {
		// Overwrite the oldest tuple.
		e.first++
		e.lost++
	}
	e.next++
	if e.wslot++; e.wslot == e.cap {
		e.wslot = 0
	}
	return seq, slot
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

// Latest returns the newest retained tuple without consuming anything.
// For fixed elements the payload is a fresh copy (Latest is a cold path;
// the cursors are the ones that recycle read buffers).
func (e *Element) Latest() (Tuple, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.next == e.first {
		if e.closed {
			return Tuple{}, ErrClosed
		}
		return Tuple{}, ErrEmpty
	}
	t := e.at(e.next - 1)
	if e.recSize != 0 {
		t.Data = append([]byte(nil), t.Data...)
	}
	return t, nil
}

// Close marks the element closed and wakes all blocked readers. Subsequent
// writes fail with ErrClosed; reads drain retained tuples and then fail
// with ErrClosed.
func (e *Element) Close() {
	e.mu.Lock()
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
}

// Closed reports whether Close has been called.
func (e *Element) Closed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
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

// at returns the retained tuple with sequence number seq; caller holds mu.
// A fixed element's tuple is a view of its arena slot, good only until mu
// is released.
func (e *Element) at(seq uint64) Tuple {
	slot := e.slotOf(seq)
	if rs := e.recSize; rs != 0 {
		return Tuple{Seq: seq, Data: e.arena[slot*rs : (slot+1)*rs : (slot+1)*rs]}
	}
	return e.ring[slot]
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
// Reads from a fixed-record element copy payloads out of the element's
// arena, never alias it. TryNext, Next and DrainInto copy into one buffer
// the cursor owns and hand out Tuple.Data slices of that buffer: they are
// valid until the next read through the same cursor, which overwrites
// them, and a reader that keeps one longer must copy it. DrainBytesInto
// copies into the caller's destination instead and leaves the cursor's
// buffer alone, so what it appended is the caller's for good. Readers
// that batch and finish with a batch before draining again — the monitor
// and gather loops' shape — run allocation-free once the buffer in use
// has grown to the working-set size.
type Cursor struct {
	e       *Element
	pos     uint64        // next sequence number to deliver
	buf     []byte        // copy-out storage for fixed elements, reused per read
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

// Element returns the element this cursor reads from.
func (c *Cursor) Element() *Element { return c.e }

// advance normalizes the cursor against the retained window; caller holds mu.
func (c *Cursor) advance() {
	if c.pos < c.e.first {
		c.skipped.Add(c.e.first - c.pos)
		c.pos = c.e.first
	}
}

// takeOne delivers the tuple at c.pos, copying fixed-element payloads
// into the cursor's buffer; caller holds mu and has checked pos < next.
func (c *Cursor) takeOne() Tuple {
	t := c.e.at(c.pos)
	if rs := c.e.recSize; rs != 0 {
		if cap(c.buf) < rs {
			c.buf = make([]byte, rs)
		}
		out := c.buf[:rs:rs]
		copy(out, t.Data)
		t.Data = out
	}
	c.pos++
	c.read.Add(1)
	return t
}

// TryNext returns the next tuple without blocking. It returns ErrEmpty when
// the reader has consumed everything currently retained, and ErrClosed when
// the element is closed and drained.
func (c *Cursor) TryNext() (Tuple, error) {
	c.e.mu.Lock()
	defer c.e.mu.Unlock()
	c.advance()
	if c.pos == c.e.next {
		if c.e.closed {
			return Tuple{}, ErrClosed
		}
		return Tuple{}, ErrEmpty
	}
	return c.takeOne(), nil
}

// Next returns the next tuple, blocking until one is available or the
// element is closed and drained.
func (c *Cursor) Next() (Tuple, error) {
	c.e.mu.Lock()
	defer c.e.mu.Unlock()
	for {
		c.advance()
		if c.pos < c.e.next {
			return c.takeOne(), nil
		}
		if c.e.closed {
			return Tuple{}, ErrClosed
		}
		c.e.cond.Wait()
	}
}

// DrainInto appends all currently retained unread tuples to dst and returns
// the extended slice. It never blocks. Fixed-element payloads are copied
// into the cursor's buffer, which the whole batch shares: the appended
// tuples are valid until the next read through this cursor.
func (c *Cursor) DrainInto(dst []Tuple) []Tuple {
	c.e.mu.Lock()
	defer c.e.mu.Unlock()
	c.advance()
	n := int(c.e.next - c.pos)
	if n == 0 {
		return dst
	}
	if rs := c.e.recSize; rs != 0 {
		c.buf = c.e.appendRecords(c.buf[:0], c.pos, n)
		for i := 0; i < n; i++ {
			dst = append(dst, Tuple{Seq: c.pos, Data: c.buf[i*rs : (i+1)*rs : (i+1)*rs]})
			c.pos++
		}
		c.read.Add(uint64(n))
		return dst
	}
	for c.pos < c.e.next {
		dst = append(dst, c.e.at(c.pos))
		c.pos++
		c.read.Add(1)
	}
	return dst
}

// DrainBytesInto appends the raw payload bytes of up to max unread
// records (max <= 0: all) to dst under a single lock acquisition and
// returns the extended slice plus the record count. Every drained record
// must be recSize bytes; a mismatch stops the drain at the offending
// record (which stays unconsumed) and reports it. It never blocks — an
// empty drain is a valid result. This is the batch-reader fast path: one
// lock, no Tuple structs, and the destination is caller-owned — a reply
// frame being built in place, or a buffer a pull loop recycles. A fixed
// element's records leave as at most two block copies (the window wraps
// the arena at most once); a variable element's are checked and copied
// one by one. A destination with room for the batch is not reallocated;
// a short one grows as append grows it.
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
	if c.e.recSize != 0 {
		if c.e.recSize != recSize {
			return dst, 0, fmt.Errorf("%w: %q: element records %d bytes, reader wants %d",
				ErrRecordSize, c.e.name, c.e.recSize, recSize)
		}
		dst = c.e.appendRecords(dst, c.pos, n)
		c.pos += uint64(n)
		c.read.Add(uint64(n))
		return dst, n, nil
	}
	dst = slices.Grow(dst, n*recSize)
	for i := 0; i < n; i++ {
		t := c.e.at(c.pos)
		if len(t.Data) != recSize {
			c.read.Add(uint64(i))
			return dst, i, fmt.Errorf("%w: %q: record %d is %d bytes, want %d",
				ErrRecordSize, c.e.name, t.Seq, len(t.Data), recSize)
		}
		dst = append(dst, t.Data...)
		c.pos++
	}
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

// Create creates and registers a new element.
func (r *Registry) Create(name string, capacity int) (*Element, error) {
	e, err := NewElement(name, capacity)
	if err != nil {
		return nil, err
	}
	return r.register(name, e)
}

// CreateFixed creates and registers a fixed-record element (see
// NewElementFixed).
func (r *Registry) CreateFixed(name string, capacity, recSize int) (*Element, error) {
	e, err := NewElementFixed(name, capacity, recSize)
	if err != nil {
		return nil, err
	}
	return r.register(name, e)
}

func (r *Registry) register(name string, e *Element) (*Element, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.elems[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	r.elems[name] = e
	return e, nil
}

// Lookup finds a registered element by name.
func (r *Registry) Lookup(name string) (*Element, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.elems[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
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

// CloseAll closes every registered element, waking all blocked readers.
func (r *Registry) CloseAll() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, e := range r.elems {
		e.Close()
	}
}
