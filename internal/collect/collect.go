// Package collect implements EventSpace data collection: event collectors
// and the 28-byte binary trace tuples they record (section 4.2).
//
// An event collector is a PATHS wrapper inserted into a communication
// path. For every operation it records the entry and exit timestamps of
// the next wrapper plus identifying fields, packs them into a 28-byte
// tuple in native byte order, and writes the tuple to a bounded PastSet
// trace buffer with a blocking write (a mutex, a 28-byte memory copy, and
// an unlock). The traced operation is blocked during the write, so the
// write path is deliberately minimal: the tuple is encoded into a stack
// scratch buffer and copied into the buffer's preallocated arena
// (pastset.Element.WriteCopy), so recording performs zero heap
// allocations per operation — the CI bench gate pins this at
// 0 allocs/op. Self-metrics stay off the write too: an attached site
// counts writes from the collector's sequence counter, and only one
// write in 64 takes a third timestamp for its latency histogram.
package collect

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"eventspace/internal/hrtime"
	"eventspace/internal/metrics"
	"eventspace/internal/pastset"
	"eventspace/internal/paths"
	"eventspace/internal/vnet"
)

// TupleSize is the encoded size of a trace tuple: the paper's 28 bytes
// (about 37 450 tuples per megabyte).
const TupleSize = 28

// latencySample is the self-metrics sampling period: the writes whose
// sequence number is a multiple of it are timed. Sampling by sequence
// number times the same writes on every run.
const latencySample = 64

// TraceTuple is the record an event collector writes per operation:
// event collector identifier, PastSet operation type, tuple sequence
// number, return value, and the start and completion timestamps.
type TraceTuple struct {
	ECID  uint32
	Op    paths.OpKind
	Ret   int16
	Seq   uint32
	Start hrtime.Stamp
	End   hrtime.Stamp
}

// Encode packs the tuple into a fresh 28-byte slice.
func (t TraceTuple) Encode() []byte {
	buf := make([]byte, TupleSize)
	t.EncodeTo(buf)
	return buf
}

// EncodeTo packs the tuple into buf, which must be at least TupleSize
// bytes.
//
//lint:hotpath per-operation encode; gated by BenchmarkOpOverhead's zero-alloc check
func (t TraceTuple) EncodeTo(buf []byte) {
	binary.LittleEndian.PutUint32(buf[0:4], t.ECID)
	binary.LittleEndian.PutUint16(buf[4:6], uint16(t.Op))
	binary.LittleEndian.PutUint16(buf[6:8], uint16(t.Ret))
	binary.LittleEndian.PutUint32(buf[8:12], t.Seq)
	binary.LittleEndian.PutUint64(buf[12:20], uint64(t.Start))
	binary.LittleEndian.PutUint64(buf[20:28], uint64(t.End))
}

// Decode unpacks a 28-byte trace tuple.
func Decode(buf []byte) (TraceTuple, error) {
	if len(buf) < TupleSize {
		return TraceTuple{}, fmt.Errorf("collect: short trace tuple (%d bytes)", len(buf))
	}
	return decode(buf), nil
}

// decode unpacks the tuple at the front of buf, which holds at least
// TupleSize bytes.
func decode(buf []byte) TraceTuple {
	_ = buf[TupleSize-1]
	return TraceTuple{
		ECID:  binary.LittleEndian.Uint32(buf[0:4]),
		Op:    paths.OpKind(binary.LittleEndian.Uint16(buf[4:6])),
		Ret:   int16(binary.LittleEndian.Uint16(buf[6:8])),
		Seq:   binary.LittleEndian.Uint32(buf[8:12]),
		Start: int64(binary.LittleEndian.Uint64(buf[12:20])),
		End:   int64(binary.LittleEndian.Uint64(buf[20:28])),
	}
}

// PartialTupleError reports a payload that ends mid-tuple: Offset is
// where the short trailing tuple starts and Remaining how many bytes of
// it are present (0 < Remaining < TupleSize). The archive's torn-tail
// recovery uses Offset as the truncation point.
type PartialTupleError struct {
	Offset    int // byte offset of the first incomplete tuple
	Remaining int // bytes present past Offset
}

// Error describes the partial tuple.
func (e *PartialTupleError) Error() string {
	return fmt.Sprintf("collect: partial trace tuple at byte %d (%d of %d bytes)",
		e.Offset, e.Remaining, TupleSize)
}

// DecodeAll unpacks a concatenation of trace tuples, as produced by batch
// readers and gather wrappers. A payload ending mid-tuple yields every
// whole tuple before the tear together with a *PartialTupleError
// locating it, so callers can keep the intact prefix.
func DecodeAll(buf []byte) ([]TraceTuple, error) {
	return DecodeAppend(make([]TraceTuple, 0, len(buf)/TupleSize), buf)
}

// DecodeAppend is DecodeAll into a caller-provided slice: decoded tuples
// are appended to dst and the extended slice returned. Loops that decode
// batch after batch pass dst[:0] to recycle the backing array, so the
// steady state allocates nothing (the archive reader's block decoder and
// the writer's raw-append path both run this way). dst is grown once and
// filled in place.
func DecodeAppend(dst []TraceTuple, buf []byte) ([]TraceTuple, error) {
	whole := len(buf) / TupleSize
	n := len(dst)
	if need := n + whole; cap(dst) < need {
		grown := make([]TraceTuple, n, need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:n+whole]
	for i, out := 0, dst[n:]; i < len(out); i++ {
		out[i] = decode(buf[i*TupleSize:])
	}
	if rem := len(buf) % TupleSize; rem != 0 {
		return dst, &PartialTupleError{Offset: whole * TupleSize, Remaining: rem}
	}
	return dst, nil
}

// Role describes where in a spanning tree an event collector sits, so
// monitors know which tuples to combine for which metric (section 3).
type Role uint8

// Event collector roles.
const (
	// RoleGeneric marks a collector with no special position.
	RoleGeneric Role = iota
	// RoleContributor sits on contributor i's path just before a
	// collective wrapper; its tuples give t1_i and t4_i.
	RoleContributor
	// RoleCollective sits after a collective wrapper (on the upward
	// path); its tuples give t2 and t3.
	RoleCollective
	// RoleStubClient sits just before an inter-host stub; its tuples
	// give t1 and t4 of the TCP latency formula.
	RoleStubClient
	// RoleStubServer is the first collector called by a communication
	// thread; its tuples give t2 and t3 of the TCP latency formula.
	RoleStubServer
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleGeneric:
		return "generic"
	case RoleContributor:
		return "contributor"
	case RoleCollective:
		return "collective"
	case RoleStubClient:
		return "stub-client"
	case RoleStubServer:
		return "stub-server"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// Meta ties an event collector to its place in the monitored structure.
type Meta struct {
	Role        Role
	Tree        string // spanning tree name
	Node        string // tree node (e.g. allreduce wrapper) it instruments
	Contributor int    // contributor index for RoleContributor, else -1
}

// EventCollector is the instrumentation wrapper. It is itself a PATHS
// wrapper so paths are instrumented by insertion, leaving the surrounding
// wrappers untouched.
type EventCollector struct {
	name string
	host *vnet.Host
	id   uint32
	meta Meta
	next paths.Wrapper
	buf  *pastset.Element
	seq  atomic.Uint64 // writes made; the tuple carries its low 32 bits

	enabled atomic.Bool
	met     atomic.Pointer[metrics.Op]
	metMu   sync.Mutex // serializes SetMetrics
	release func()     // folds seq into met's site; guarded by metMu
}

// Name returns the collector's name.
func (e *EventCollector) Name() string { return e.name }

// Host returns the collector's host.
func (e *EventCollector) Host() *vnet.Host { return e.host }

// ID returns the collector's identifier, as recorded in its tuples.
func (e *EventCollector) ID() uint32 { return e.id }

// Meta returns the collector's structural metadata.
func (e *EventCollector) Meta() Meta { return e.meta }

// Buffer returns the collector's trace buffer.
func (e *EventCollector) Buffer() *pastset.Element { return e.buf }

// SetEnabled turns recording on or off. Disabled collectors forward
// operations untouched; the paper measures monitored runs against exactly
// this un-instrumented behaviour.
func (e *EventCollector) SetEnabled(on bool) { e.enabled.Store(on) }

// SetMetrics installs the collector's self-metrics site. Its Ops and
// Bytes are exact: the writes made since this call, read from the
// collector's sequence counter when the registry is snapshot. Its
// latency histogram holds the cost of one write in 64 (the paper's
// "cost of monitoring": encode plus buffer write, not the traced
// operation itself). nil detaches; a detach or a re-attach first folds
// the writes made so far into the old site.
func (e *EventCollector) SetMetrics(op *metrics.Op) {
	e.metMu.Lock()
	defer e.metMu.Unlock()
	if op == e.met.Load() {
		return
	}
	if e.release != nil {
		e.release()
	}
	e.met.Store(op)
	e.release = op.Keep(&e.seq, TupleSize)
}

// Op timestamps the next wrapper's operation and records a trace tuple.
// Failed operations record Ret = -1 before the error propagates.
//
//lint:hotpath the paper's "cost of monitoring" path: encode + buffer write, zero allocations
func (e *EventCollector) Op(ctx *paths.Ctx, req paths.Request) (paths.Reply, error) {
	if !e.enabled.Load() {
		return e.next.Op(ctx, req)
	}
	start := hrtime.Now()
	rep, err := e.next.Op(ctx, req)
	end := hrtime.Now()
	seq := e.seq.Add(1) - 1
	t := TraceTuple{
		ECID:  e.id,
		Op:    req.Kind,
		Ret:   rep.Ret,
		Seq:   uint32(seq),
		Start: start,
		End:   end,
	}
	if err != nil {
		t.Ret = -1
	}
	// The write must not fail the traced operation: a closed trace
	// buffer simply stops recording. The scratch array stays on the
	// stack — WriteCopy never retains its argument — so the whole
	// record step allocates nothing.
	var scratch [TupleSize]byte
	t.EncodeTo(scratch[:])
	_, _ = e.buf.WriteCopy(scratch[:])
	if seq%latencySample == 0 {
		if m := e.met.Load(); m != nil {
			m.Observe(hrtime.Now() - end)
		}
	}
	return rep, err
}

var _ paths.Wrapper = (*EventCollector)(nil)

// Registry assigns event collector ids and remembers every collector so
// event scopes and monitors can locate trace buffers and metadata by id.
type Registry struct {
	mu   sync.Mutex
	byID map[uint32]*EventCollector
	next uint32
	met  *metrics.Registry
}

// NewRegistry returns an empty collector registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[uint32]*EventCollector)}
}

// UseMetrics wires every collector created afterwards (and all existing
// ones) into the self-metrics registry, each on its own KindCollector
// site (see EventCollector.SetMetrics). nil detaches them all, folding
// each one's final count into the site it leaves.
func (r *Registry) UseMetrics(mr *metrics.Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.met = mr
	for _, ec := range r.byID {
		ec.SetMetrics(mr.Op(metrics.KindCollector, ec.Name()))
	}
}

// New creates an event collector around next, backed by a fresh trace
// buffer of bufCap tuples registered in the host's PastSet registry under
// "trace/<name>". Trace buffers are fixed-record elements: the 28-byte
// tuples live in a preallocated arena, which is what keeps the recording
// hot path at zero allocations per operation. Collectors start enabled,
// attached to the registry's self-metrics as of the moment they join it.
func (r *Registry) New(name string, host *vnet.Host, meta Meta, next paths.Wrapper, bufCap int) (*EventCollector, error) {
	if next == nil {
		return nil, fmt.Errorf("collect: collector %q: %w", name, paths.ErrNoNext)
	}
	buf, err := host.Registry.CreateFixed("trace/"+name, bufCap, TupleSize)
	if err != nil {
		return nil, fmt.Errorf("collect: collector %q: %v", name, err)
	}
	// Joining the registry and attaching to its metrics is one critical
	// section, so a concurrent UseMetrics either sees the collector or
	// has already set the registry it attaches to.
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	ec := &EventCollector{name: name, host: host, id: r.next, meta: meta, next: next, buf: buf}
	ec.enabled.Store(true)
	r.byID[ec.id] = ec
	ec.SetMetrics(r.met.Op(metrics.KindCollector, name))
	return ec, nil
}

// ByID looks a collector up by id.
func (r *Registry) ByID(id uint32) (*EventCollector, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ec, ok := r.byID[id]
	return ec, ok
}

// All returns every registered collector in id order.
func (r *Registry) All() []*EventCollector {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*EventCollector, 0, len(r.byID))
	for id := uint32(1); id <= r.next; id++ {
		if ec, ok := r.byID[id]; ok {
			out = append(out, ec)
		}
	}
	return out
}
