// Package metrics is EventSpace's self-observability subsystem: it
// accounts for the cost of monitoring the monitor. The paper's central
// claim is that monitoring is cheap enough to leave on (section 6.1:
// 1.1 µs per event-collector write, 0-2% application overhead); this
// package gives the monitoring stack itself — remote stubs, gather
// wrappers, event collectors, batch readers, event-scope pulls, gather
// threads, retry and health machinery — the same per-operation
// accounting, so every later performance change can be measured against
// it.
//
// The recording path is lock-free: an operation site is an Op holding
// atomic counters and a fixed-bucket latency histogram with
// power-of-two bucket bounds. Registration (Registry.Op, Registry.
// Counter) takes a mutex but happens only at build time; the hot path
// is a handful of atomic adds, or none where the owner already keeps
// the count (Op.Keep). Durations are hrtime durations, so runs
// under the discrete-event virtual clock record exact, deterministic
// distributions.
//
// Everything is optional: a nil *Registry hands out nil *Op and nil
// *Counter values whose methods are no-ops, so an uninstrumented build
// pays only a nil check on each site.
package metrics

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind classifies an instrumented operation site by the wrapper (or
// loop) it measures.
type Kind uint8

// Operation-site kinds, in the order they appear in reports.
const (
	// KindStub measures a paths.Remote call (encode, round trip,
	// retries and redials included).
	KindStub Kind = iota
	// KindGather measures a paths.Gather over its children.
	KindGather
	// KindCollector measures an event collector's own tuple write (the
	// paper's 1.1 µs figure), not the operation it instruments. Ops and
	// bytes are exact, kept by the collector's sequence counter; the
	// histogram holds one write in 64.
	KindCollector
	// KindReader measures a paths.BatchReader drain.
	KindReader
	// KindScopePull measures one full pull through an event scope's
	// root; bytes are the records moved to the front-end.
	KindScopePull
	// KindArchive measures trace-archive I/O: block writes on the
	// writer side, segment scans on the reader side; bytes are the
	// segment bytes moved.
	KindArchive
	// KindReconfig measures runtime tree-repair operations: re-parenting
	// an orphaned host, promoting a replacement gateway, and rebuilding
	// front-end monitor state from the archive on failover. The
	// histogram is the repair latency distribution.
	KindReconfig
	// KindBreaker measures a straggler circuit breaker's guarded calls:
	// the latency of deadline-bounded child gathers (overruns and skips
	// are accounted in the scope's breaker counters).
	KindBreaker
	// KindIngest measures a monitor's bounded ingest-queue drain: the
	// time from a gathered batch's enqueue to its application, with bytes
	// counting the batch payload (sheds are accounted in counters).
	KindIngest
	// KindQuery measures the continuous-query engine's per-batch
	// evaluation: the time to ingest one gathered batch through every
	// standing query, with bytes counting the batch payload.
	KindQuery
	// KindCheckpoint measures recovery-checkpoint writes: the time to
	// snapshot and persist one monitor-state checkpoint, with bytes
	// counting the encoded checkpoint frame.
	KindCheckpoint
	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindStub:
		return "stub"
	case KindGather:
		return "gather"
	case KindCollector:
		return "collector"
	case KindReader:
		return "reader"
	case KindScopePull:
		return "scope-pull"
	case KindArchive:
		return "archive"
	case KindReconfig:
		return "reconfig"
	case KindBreaker:
		return "breaker"
	case KindIngest:
		return "ingest"
	case KindQuery:
		return "query"
	case KindCheckpoint:
		return "checkpoint"
	default:
		return "kind(?)"
	}
}

// NumBuckets is the histogram size. Bucket i holds durations whose
// nanosecond value has bit length i: bucket 0 is exactly 0 ns, bucket i
// covers [2^(i-1), 2^i) ns. Bucket 39 (upper bound ≈ 9.2 minutes)
// absorbs everything longer.
const NumBuckets = 40

// BucketBound returns bucket i's exclusive upper bound in nanoseconds.
func BucketBound(i int) int64 {
	if i <= 0 {
		return 1
	}
	if i >= NumBuckets-1 {
		return math.MaxInt64
	}
	return int64(1) << uint(i)
}

func bucketIndex(ns int64) int {
	if ns <= 0 {
		return 0
	}
	i := bits.Len64(uint64(ns))
	if i >= NumBuckets {
		return NumBuckets - 1
	}
	return i
}

// Histogram is a lock-free fixed-bucket latency histogram with
// power-of-two bucket bounds. The zero value is NOT ready for use;
// histograms live inside Ops, which initialize them.
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
	min     atomic.Int64 // MaxInt64 until first observation
	max     atomic.Int64
}

func (h *Histogram) init() { h.min.Store(math.MaxInt64) }

// Observe records one duration in nanoseconds. A nil histogram is a
// no-op, matching the registry's disabled configuration.
func (h *Histogram) Observe(ns int64) {
	if h == nil {
		return
	}
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.min.Load()
		if ns >= cur || h.min.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Count   uint64
	SumNS   int64
	MinNS   int64 // 0 when Count == 0
	MaxNS   int64
	Buckets [NumBuckets]uint64
}

func (h *Histogram) snapshot() HistSnapshot {
	var s HistSnapshot
	// Counters are read individually; a concurrent Observe can make the
	// copy slightly inconsistent, which is fine for reporting.
	s.Count = h.count.Load()
	s.SumNS = h.sum.Load()
	if s.Count > 0 {
		s.MinNS = h.min.Load()
		s.MaxNS = h.max.Load()
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// MeanNS returns the mean duration in nanoseconds (0 when empty).
func (s HistSnapshot) MeanNS() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumNS) / float64(s.Count)
}

// Quantile estimates the p-quantile (p in [0,1]) in nanoseconds from
// the bucket counts, clamped to the observed min/max. Within a bucket
// the estimate is the bucket's upper bound, so estimates are
// conservative (never below the true quantile's bucket).
func (s HistSnapshot) Quantile(p float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(math.Ceil(p * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Buckets {
		cum += c
		if cum >= rank {
			est := BucketBound(i) - 1
			if est < s.MinNS {
				est = s.MinNS
			}
			if est > s.MaxNS {
				est = s.MaxNS
			}
			return est
		}
	}
	return s.MaxNS
}

// merge folds o into s bucket-wise.
func (s *HistSnapshot) merge(o HistSnapshot) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 {
		s.MinNS, s.MaxNS = o.MinNS, o.MaxNS
	} else {
		if o.MinNS < s.MinNS {
			s.MinNS = o.MinNS
		}
		if o.MaxNS > s.MaxNS {
			s.MaxNS = o.MaxNS
		}
	}
	s.Count += o.Count
	s.SumNS += o.SumNS
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Op is one instrumented operation site: op/error counts, bytes moved,
// and a latency histogram. All methods are safe on a nil receiver (the
// disabled path), and all recording is lock-free.
type Op struct {
	kind  Kind
	name  string
	ops   atomic.Uint64
	errs  atomic.Uint64
	bytes atomic.Uint64
	lat   Histogram

	mu   sync.Mutex // guards kept; taken by Keep, its release and Snapshot
	kept []*keptCount
}

// keptCount is a count its owner keeps, read into the site from base.
type keptCount struct {
	c          *atomic.Uint64
	base, size uint64
}

// Record accounts one operation: its hrtime duration in nanoseconds,
// the payload bytes it moved, and whether it failed.
func (o *Op) Record(durNS int64, bytes int, err error) {
	if o == nil {
		return
	}
	o.ops.Add(1)
	if err != nil {
		o.errs.Add(1)
	}
	if bytes > 0 {
		o.bytes.Add(uint64(bytes))
	}
	o.lat.Observe(durNS)
}

// Observe records one latency without counting an operation: for a
// site whose operations are counted by Keep and only some of which are
// timed.
func (o *Op) Observe(durNS int64) {
	if o == nil {
		return
	}
	o.lat.Observe(durNS)
}

// Keep makes c, a count of operations its owner increments anyway, part
// of the site: until the returned release runs, the site's Ops grow by
// what c grows by and its Bytes by size for each, with no call per
// operation. Snapshot reads c. release folds c's final growth into the
// site and stops reading c; the owner calls it once, before it keeps c
// on another site. On a nil site the release does nothing.
func (o *Op) Keep(c *atomic.Uint64, size uint64) (release func()) {
	if o == nil {
		return func() {}
	}
	k := &keptCount{c: c, base: c.Load(), size: size}
	o.mu.Lock()
	o.kept = append(o.kept, k)
	o.mu.Unlock()
	return func() {
		o.mu.Lock()
		defer o.mu.Unlock()
		for i, kk := range o.kept {
			if kk == k {
				n := k.c.Load() - k.base
				o.ops.Add(n)
				o.bytes.Add(n * k.size)
				o.kept = append(o.kept[:i], o.kept[i+1:]...)
				return
			}
		}
	}
}

// counts reads the site's op and byte counts, the kept ones included.
func (o *Op) counts() (ops, bytes uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	ops, bytes = o.ops.Load(), o.bytes.Load()
	for _, k := range o.kept {
		n := k.c.Load() - k.base
		ops += n
		bytes += n * k.size
	}
	return ops, bytes
}

// Counter is a named monotonic count (retries, redials, health
// transitions, loop events). Safe on a nil receiver.
type Counter struct {
	name string
	n    atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.n.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.n.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

type opKey struct {
	kind Kind
	name string
}

// Registry hands out operation sites and counters and snapshots them.
// A nil *Registry is valid and hands out nil sites: the disabled
// configuration.
type Registry struct {
	mu       sync.Mutex
	ops      map[opKey]*Op
	opOrder  []*Op
	counters map[string]*Counter
	ctrOrder []*Counter
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		ops:      make(map[opKey]*Op),
		counters: make(map[string]*Counter),
	}
}

// Op returns the site for (kind, name), creating it on first use. The
// same pair always yields the same *Op. Returns nil on a nil registry.
func (r *Registry) Op(kind Kind, name string) *Op {
	if r == nil {
		return nil
	}
	k := opKey{kind, name}
	r.mu.Lock()
	defer r.mu.Unlock()
	if o, ok := r.ops[k]; ok {
		return o
	}
	o := &Op{kind: kind, name: name}
	o.lat.init()
	r.ops[k] = o
	r.opOrder = append(r.opOrder, o)
	return o
}

// Counter returns the counter for name, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counters[name] = c
	r.ctrOrder = append(r.ctrOrder, c)
	return c
}

// OpStats is one site's snapshot. Lat.Count is below Ops on a site that
// times only some of its operations (KindCollector).
type OpStats struct {
	Kind  Kind
	Name  string
	Ops   uint64
	Errs  uint64
	Bytes uint64
	Lat   HistSnapshot
}

// CounterStat is one counter's snapshot.
type CounterStat struct {
	Name  string
	Value uint64
}

// Snapshot is the registry's typed point-in-time tree: every operation
// site sorted by kind then name, and every counter sorted by name.
type Snapshot struct {
	Ops      []OpStats
	Counters []CounterStat
}

// Snapshot copies the registry's current state. Safe on a nil registry
// (returns an empty snapshot) and concurrently with recording.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	ops := append([]*Op(nil), r.opOrder...)
	ctrs := append([]*Counter(nil), r.ctrOrder...)
	r.mu.Unlock()
	for _, o := range ops {
		n, bytes := o.counts()
		s.Ops = append(s.Ops, OpStats{
			Kind:  o.kind,
			Name:  o.name,
			Ops:   n,
			Errs:  o.errs.Load(),
			Bytes: bytes,
			Lat:   o.lat.snapshot(),
		})
	}
	for _, c := range ctrs {
		s.Counters = append(s.Counters, CounterStat{Name: c.name, Value: c.n.Load()})
	}
	sort.SliceStable(s.Ops, func(i, j int) bool {
		if s.Ops[i].Kind != s.Ops[j].Kind {
			return s.Ops[i].Kind < s.Ops[j].Kind
		}
		return s.Ops[i].Name < s.Ops[j].Name
	})
	sort.SliceStable(s.Counters, func(i, j int) bool {
		return s.Counters[i].Name < s.Counters[j].Name
	})
	return s
}

// ByKind returns the snapshot's sites of one kind, in name order.
func (s Snapshot) ByKind(k Kind) []OpStats {
	var out []OpStats
	for _, o := range s.Ops {
		if o.Kind == k {
			out = append(out, o)
		}
	}
	return out
}

// Totals merges the snapshot's sites into one aggregate OpStats per
// kind present (bucket-wise histogram merge), in kind order. The
// aggregate's Name is the kind name and its Ops/Errs/Bytes are sums.
func (s Snapshot) Totals() []OpStats {
	var by [numKinds]*OpStats
	for _, o := range s.Ops {
		t := by[o.Kind]
		if t == nil {
			t = &OpStats{Kind: o.Kind, Name: o.Kind.String()}
			by[o.Kind] = t
		}
		t.Ops += o.Ops
		t.Errs += o.Errs
		t.Bytes += o.Bytes
		t.Lat.merge(o.Lat)
	}
	var out []OpStats
	for _, t := range by {
		if t != nil {
			out = append(out, *t)
		}
	}
	return out
}

// Sites counts the snapshot's sites of one kind.
func (s Snapshot) Sites(k Kind) int { return len(s.ByKind(k)) }
