// Bounded ingest queues. A monitor's gather thread should never block on
// the monitor's own analysis falling behind: under overload the right
// failure mode is to shed the *oldest* undigested batch (its information
// is the most stale) and keep pulling, not to stall the event-scope tree.
// IngestQueue is that buffer: a fixed ring of gathered batches with
// shed-oldest backpressure, atomic shed accounting, and a summary-only
// mode — the lowest rung of the degradation ladder — that folds incoming
// batches into aggregate counts without retaining payloads at all.
//
// Both hot paths (Push with shed, Pop) are allocation-free: the ring is
// preallocated and the counters are atomics, so an overloaded monitor
// sheds without adding garbage-collection pressure to the host it is
// trying to protect.
package collect

import (
	"sync"
	"sync/atomic"

	"eventspace/internal/metrics"
)

// DefaultIngestCap is the ring capacity used when a queue is created
// with a non-positive capacity: enough batches to ride out a transient
// analysis stall at typical pull intervals without unbounded growth.
const DefaultIngestCap = 64

// IngestStats is a point-in-time snapshot of an ingest queue's
// accounting.
type IngestStats struct {
	Pushed     uint64 // batches offered to the queue
	Popped     uint64 // batches handed to the drainer
	Queued     int    // batches currently retained
	ShedBatches uint64 // batches dropped by shed-oldest backpressure
	ShedTuples  uint64 // whole trace tuples inside shed batches
	ShedBytes   uint64 // payload bytes inside shed batches
	SummarizedBatches uint64 // batches folded away in summary-only mode
	SummarizedTuples  uint64 // whole trace tuples summarized away
	SummarizedBytes   uint64 // payload bytes summarized away
}

// IngestQueue is a bounded ring of gathered batches with shed-oldest
// backpressure. It is safe for one or more producers and consumers.
type IngestQueue struct {
	mu   sync.Mutex
	buf  [][]byte // preallocated ring
	head int      // index of the oldest retained batch
	n    int      // retained batches

	summary atomic.Bool

	pushed atomic.Uint64
	popped atomic.Uint64

	shedBatches atomic.Uint64
	shedTuples  atomic.Uint64
	shedBytes   atomic.Uint64

	sumBatches atomic.Uint64
	sumTuples  atomic.Uint64
	sumBytes   atomic.Uint64

	// Optional self-metrics counters (nil-safe).
	cShedBatches *metrics.Counter
	cShedTuples  *metrics.Counter
}

// NewIngestQueue creates a queue retaining at most capBatches gathered
// batches (DefaultIngestCap when non-positive).
func NewIngestQueue(capBatches int) *IngestQueue {
	if capBatches <= 0 {
		capBatches = DefaultIngestCap
	}
	return &IngestQueue{buf: make([][]byte, capBatches)}
}

// SetMetrics wires the queue's shed accounting into self-metrics
// counters (nil-safe; nil detaches).
func (q *IngestQueue) SetMetrics(shedBatches, shedTuples *metrics.Counter) {
	q.mu.Lock()
	q.cShedBatches, q.cShedTuples = shedBatches, shedTuples
	q.mu.Unlock()
}

// SetSummaryOnly flips summary-only mode: when on, Push folds batches
// into the summarized counters and retains nothing (already-queued
// batches stay queued for the drainer).
func (q *IngestQueue) SetSummaryOnly(on bool) { q.summary.Store(on) }

// Len returns the number of batches currently retained.
func (q *IngestQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Push offers one gathered batch. When the ring is full the oldest
// retained batch is shed to make room — the monitor keeps the freshest
// data under overload. In summary-only mode the batch is counted and
// dropped without being retained. Push never blocks and never fails;
// empty batches are ignored.
func (q *IngestQueue) Push(data []byte) {
	if len(data) == 0 {
		return
	}
	q.pushed.Add(1)
	if q.summary.Load() {
		q.sumBatches.Add(1)
		q.sumTuples.Add(uint64(len(data) / TupleSize))
		q.sumBytes.Add(uint64(len(data)))
		return
	}
	q.mu.Lock()
	if q.n == len(q.buf) {
		// Shed the oldest batch. The counters are atomics, so updating
		// them under the ring mutex costs nothing extra and keeps the
		// shed-then-insert step indivisible for concurrent producers.
		old := q.buf[q.head]
		q.buf[q.head] = nil
		q.head++
		if q.head == len(q.buf) {
			q.head = 0
		}
		q.n--
		q.shedBatches.Add(1)
		q.shedTuples.Add(uint64(len(old) / TupleSize))
		q.shedBytes.Add(uint64(len(old)))
		q.cShedBatches.Inc()
		q.cShedTuples.Add(uint64(len(old) / TupleSize))
	}
	tail := q.head + q.n
	if tail >= len(q.buf) {
		tail -= len(q.buf)
	}
	q.buf[tail] = data
	q.n++
	q.mu.Unlock()
}

// Pop removes and returns the oldest retained batch, reporting false
// when the queue is empty. It never blocks.
func (q *IngestQueue) Pop() ([]byte, bool) {
	q.mu.Lock()
	if q.n == 0 {
		q.mu.Unlock()
		return nil, false
	}
	data := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	q.mu.Unlock()
	q.popped.Add(1)
	return data, true
}

// Stats snapshots the queue's accounting.
func (q *IngestQueue) Stats() IngestStats {
	return IngestStats{
		Pushed:            q.pushed.Load(),
		Popped:            q.popped.Load(),
		Queued:            q.Len(),
		ShedBatches:       q.shedBatches.Load(),
		ShedTuples:        q.shedTuples.Load(),
		ShedBytes:         q.shedBytes.Load(),
		SummarizedBatches: q.sumBatches.Load(),
		SummarizedTuples:  q.sumTuples.Load(),
		SummarizedBytes:   q.sumBytes.Load(),
	}
}
