// Package paths implements the PATHS communication system the monitored
// applications use (Bjørndalen, 2003), as described in sections 3 and 4 of
// the paper.
//
// Threads communicate through *paths*: chains of *wrappers* that start at a
// thread and end in a PastSet buffer. Each wrapper runs code before and
// after invoking the next wrapper in the path. Wrappers implement storage
// (PastSet element access), data manipulation (reduction, filtering,
// conversion), gathering, inter-host communication (a stub
// forwarding operations to a communication thread on another host), and
// collective operations (the allreduce wrapper that joins several
// contributor paths into a spanning tree, and the all-to-all exchange used
// between clusters on WAN multi-clusters).
//
// Spanning trees are configured by composing wrappers and choosing which
// host each wrapper runs on; package cluster provides the generators for
// the tree shapes used in the paper.
package paths

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"eventspace/internal/hrtime"
	"eventspace/internal/metrics"
	"eventspace/internal/pastset"
	"eventspace/internal/vnet"
)

// OpKind is the PastSet operation type carried by a request. It is also
// recorded in trace tuples.
type OpKind uint16

// Operation kinds.
const (
	OpWrite OpKind = iota + 1 // write a value/tuple (allreduce contributions are writes)
	OpRead                    // read tuples (event scopes pull trace data)
	// Value 3 is reserved. It marked degradation-mode transitions, a
	// control kind no longer recorded; keeping the slot leaves OpAlert
	// and OpCheckpoint at the values archives already hold.
	_
	// OpAlert marks a control tuple: a continuous query firing on the
	// live gather stream. Control tuples carry the reserved collector
	// id 0, are archived alongside data tuples, and never travel down a
	// path as requests — replaying an archive regenerates the identical
	// alert stream from the data tuples alone.
	OpAlert
	// OpCheckpoint marks a control tuple: a recovery checkpoint was
	// written for the monitor state covering every tuple archived
	// before it. The tuple records the checkpoint's chain sequence and
	// archive cursor, so replay tooling can see where bounded-time
	// recovery may begin; the state itself lives in the sidecar
	// ckpt-*.eckpt chain next to the segments.
	OpCheckpoint
)

// String returns the conventional name of the operation kind.
func (k OpKind) String() string {
	switch k {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpAlert:
		return "alert"
	case OpCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("op(%d)", uint16(k))
	}
}

// Request is an operation travelling down a path. Collective contributions
// carry Value (the paper's benchmarks use 8-byte messages); event-scope
// reads and gathers carry Data.
type Request struct {
	Kind  OpKind
	Value int64
	Data  []byte
	// Window is the read path's one buffer-passing rule. An OpRead may
	// carry a zero-length slice of a buffer its caller is building a
	// reply in; the wrapper that produces the reply's payload may append
	// to it and return the result as Reply.Data, and the caller, finding
	// the payload already at the tail of its buffer, adopts it there
	// instead of copying (wire.Extend). It is a hint, never an obligation:
	//
	//   - A wrapper may ignore it and return bytes of its own; the caller
	//     then copies, as it always did.
	//   - Only the wrapper whose Reply.Data is returned unchanged all the
	//     way up may append to it, and only until its Op returns. Nobody
	//     retains a window.
	//   - A wrapper that rewrites its child's reply (Transform), or whose
	//     child call may outlive its own Op (escope's deadline-bounded
	//     breaker), clears the window before forwarding.
	//   - A wrapper that sends one request to several children hands each
	//     a window of its own, one after the other (a sequential Gather),
	//     or none (a Gather with helpers): two children appending to the
	//     same window would overwrite each other.
	//   - Whoever allocates the buffer behind a window (a gather without
	//     one, a Service per call) allocates it fresh for that call: a
	//     reply's bytes are never reused, so a Reply may be retained
	//     indefinitely by whoever receives it.
	//
	// It is never encoded on the wire.
	Window []byte
}

// window returns the zero-length tail of out: what a child may append to
// so that its payload lands where wire.Extend will look for it.
func window(out []byte) []byte { return out[len(out):len(out):cap(out)] }

// Reply is the result travelling back up a path.
type Reply struct {
	Value int64
	Data  []byte
	Ret   int16 // return code recorded in trace tuples (e.g. tuple count)
}

// Ctx identifies the thread performing an operation. It travels with the
// operation, including across hosts.
type Ctx struct {
	Thread string
}

// Wrapper is one stage in a path.
type Wrapper interface {
	// Name identifies the wrapper in configurations and visualizations.
	Name() string
	// Op performs the operation, usually delegating to the next wrapper.
	Op(ctx *Ctx, req Request) (Reply, error)
}

// base carries the name/host boilerplate shared by wrapper implementations.
type base struct {
	name string
	host *vnet.Host
}

func (b base) Name() string { return b.name }

// ErrNoNext is returned when a wrapper that requires a next stage has none.
var ErrNoNext = errors.New("paths: wrapper has no next stage")

// --- Storage wrappers -------------------------------------------------

// ValueStore terminates a path in a PastSet element, storing written
// values as 8-byte tuples. It echoes the written value back, which is how
// the root of an allreduce tree returns the reduced value while storing it
// (figure 1: the reduced value is stored in a PastSet buffer).
type ValueStore struct {
	base
	elem *pastset.Element
}

// NewValueStore creates a storage wrapper over elem, an element of 8-byte
// records, on host.
func NewValueStore(name string, host *vnet.Host, elem *pastset.Element) *ValueStore {
	return &ValueStore{base: base{name, host}, elem: elem}
}

// Op stores written values; reads return the newest stored value.
func (s *ValueStore) Op(ctx *Ctx, req Request) (Reply, error) {
	switch req.Kind {
	case OpWrite:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(req.Value))
		if _, err := s.elem.WriteCopy(buf[:]); err != nil {
			return Reply{}, err
		}
		return Reply{Value: req.Value}, nil
	case OpRead:
		var buf [8]byte
		val, err := s.elem.Latest(buf[:0])
		if err != nil {
			return Reply{}, err
		}
		return Reply{Value: int64(binary.LittleEndian.Uint64(val))}, nil
	default:
		return Reply{}, fmt.Errorf("paths: %s: unsupported op %v", s.name, req.Kind)
	}
}

// BatchReader terminates a read path in a PastSet element with a private
// cursor, returning all unread retained tuples concatenated into one large
// payload. Records must be fixed-size for downstream stages to parse; the
// record size is carried for validation. It is the storage wrapper event
// scopes use to drain trace buffers.
type BatchReader struct {
	base
	cursor  *pastset.Cursor
	recSize int
	max     int // maximum records per read; 0 = unlimited
	met     atomic.Pointer[metrics.Op]
}

// NewBatchReader creates a draining reader over elem. recSize is the fixed
// record size in bytes; maxRecords bounds one batch (0 = unlimited).
func NewBatchReader(name string, host *vnet.Host, elem *pastset.Element, recSize, maxRecords int) *BatchReader {
	return &BatchReader{
		base:    base{name, host},
		cursor:  elem.NewCursor(),
		recSize: recSize,
		max:     maxRecords,
	}
}

// NewBatchReaderAtEnd is NewBatchReader with the cursor positioned after
// the newest retained tuple: only tuples written after this call are
// seen. A replacement scope built during front-end failover uses it so
// its archive recorder does not re-archive tuples the sealed archive
// already holds.
func NewBatchReaderAtEnd(name string, host *vnet.Host, elem *pastset.Element, recSize, maxRecords int) *BatchReader {
	return &BatchReader{
		base:    base{name, host},
		cursor:  elem.NewCursorAtEnd(),
		recSize: recSize,
		max:     maxRecords,
	}
}

// Cursor exposes the reader's cursor for gather-rate accounting.
func (r *BatchReader) Cursor() *pastset.Cursor { return r.cursor }

// SetMetrics installs the reader's self-metrics site. nil disables.
func (r *BatchReader) SetMetrics(op *metrics.Op) *BatchReader {
	r.met.Store(op)
	return r
}

// Op drains unread tuples (up to the batch cap) and returns them
// concatenated. Ret holds the record count. Reads never block: an empty
// batch is a valid reply.
func (r *BatchReader) Op(ctx *Ctx, req Request) (Reply, error) {
	m := r.met.Load()
	if m == nil {
		return r.drain(ctx, req)
	}
	start := hrtime.Now()
	rep, err := r.drain(ctx, req)
	m.Record(hrtime.Since(start), len(rep.Data), err)
	return rep, err
}

func (r *BatchReader) drain(ctx *Ctx, req Request) (Reply, error) {
	if req.Kind != OpRead {
		return Reply{}, fmt.Errorf("paths: %s: unsupported op %v", r.name, req.Kind)
	}
	// One lock acquisition, straight into the caller's window: under a
	// gather or a service target that is the reply frame being built.
	out, n, err := r.cursor.DrainBytesInto(req.Window, r.max, r.recSize)
	if err != nil {
		return Reply{}, fmt.Errorf("paths: %s: %v", r.name, err)
	}
	if n == 0 {
		return Reply{}, nil
	}
	return Reply{Data: out, Ret: int16(min(n, 1<<15-1))}, nil
}

// Transform is a data-manipulation wrapper: it forwards the request and
// rewrites the reply. The paper's single-scope load-balance monitor uses a
// transform as its reduce wrapper ("find the tuple with the largest down
// timestamp").
type Transform struct {
	base
	next Wrapper
	fn   func(Reply) (Reply, error)
}

// NewTransform wraps next with a reply-rewriting function.
func NewTransform(name string, host *vnet.Host, next Wrapper, fn func(Reply) (Reply, error)) *Transform {
	return &Transform{base: base{name, host}, next: next, fn: fn}
}

// Op forwards the request and applies the transform to the reply. What
// comes back is the transform's, not the child's, so the child does not
// get to write into the caller's window.
func (t *Transform) Op(ctx *Ctx, req Request) (Reply, error) {
	if t.next == nil {
		return Reply{}, fmt.Errorf("%s: %w", t.name, ErrNoNext)
	}
	req.Window = nil
	rep, err := t.next.Op(ctx, req)
	if err != nil {
		return Reply{}, err
	}
	return t.fn(rep)
}

// Func adapts a plain function into a terminal wrapper; useful in tests
// and for custom monitor stages.
type Func struct {
	base
	fn func(ctx *Ctx, req Request) (Reply, error)
}

// NewFunc creates a function wrapper.
func NewFunc(name string, host *vnet.Host, fn func(ctx *Ctx, req Request) (Reply, error)) *Func {
	return &Func{base: base{name, host}, fn: fn}
}

// Op invokes the wrapped function.
func (f *Func) Op(ctx *Ctx, req Request) (Reply, error) { return f.fn(ctx, req) }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
