// Package monitor implements the paper's two monitors (section 4.3): the
// load-balance monitor — in both its single-event-scope and distributed-
// analysis forms (figure 3) — and the statistics monitor statsm
// (figure 4), including the coscheduling of analysis threads with the
// monitored application's computation and communication threads.
package monitor

import (
	"sync"
	"sync/atomic"
	"time"

	"eventspace/internal/analysis"
	"eventspace/internal/cosched"
	"eventspace/internal/escope"
	"eventspace/internal/hrtime"
	"eventspace/internal/metrics"
	"eventspace/internal/paths"
	"eventspace/internal/vclock"
	"eventspace/internal/vnet"
)

// Config holds the knobs shared by the monitors.
type Config struct {
	// GatewayHelpers / RootHelpers configure parallel gathering in the
	// monitor's event scopes (0 = sequential): the paper's
	// "sequential" vs "parallel" rows.
	GatewayHelpers int
	RootHelpers    int
	// PullInterval is the gather thread's pacing (modelled time;
	// 0 pulls continuously).
	PullInterval time.Duration
	// AnalysisCostPerTuple is the modelled CPU occupancy an analysis
	// thread charges its host per trace tuple processed, standing in
	// for the statistics computation cost on the paper's hosts.
	AnalysisCostPerTuple time.Duration
	// AnalysisInterval paces the per-host analysis threads between
	// passes (modelled time).
	AnalysisInterval time.Duration
	// Strategy coschedules analysis threads with the application
	// (statsm experiments; cosched.None reproduces the 5-9% rows).
	Strategy cosched.Strategy
	// IntermediateCap sizes intermediate-result buffers (the paper uses
	// one megabyte: 5000 tuples).
	IntermediateCap int
	// ReadBatch bounds how many records one event-scope read returns per
	// source buffer (default 1, matching PastSet's one-tuple-per-read
	// operation — the property that makes sequential gathering too slow
	// in Tables 1-3). 0 keeps the default; negative drains fully.
	ReadBatch int
	// Health, when set, makes the monitor's event scopes degrade to
	// partial coverage on transport faults instead of failing the pull:
	// dead children are skipped and probed with backoff, and Coverage()
	// reports hosts reporting vs expected. nil keeps fail-fast scopes.
	Health *escope.HealthPolicy
	// Retry, when set, is applied to every remote stub in the monitor's
	// event scopes (transient faults are retried with backoff and a
	// reconnect path before the health guard counts them).
	Retry *paths.RetryPolicy
	// Breaker, when set (requires Health), wraps every health guard in a
	// straggler circuit breaker: outside escope.ModeStrict each gather
	// round's wait on a child is bounded by the policy's round deadline
	// and slow children are skipped and served stale within the
	// staleness bound. nil keeps unbounded gathers. The scope starts on
	// the ladder's strict rung; the monitor's SetScopeMode moves it.
	Breaker *escope.BreakerPolicy
	// Metrics, when set, wires the monitor's event scopes and stubs into
	// the self-metrics registry ("monitor the monitor"). nil disables.
	Metrics *metrics.Registry
}

// DefaultConfig returns the configuration the paper converged on:
// parallel gathering and coscheduling strategy 2.
func DefaultConfig() Config {
	return Config{
		GatewayHelpers:       4,
		RootHelpers:          4,
		AnalysisCostPerTuple: 6 * time.Microsecond,
		Strategy:             cosched.AfterUnblock,
		IntermediateCap:      5000,
	}
}

func (c *Config) intermediateCap() int {
	if c.IntermediateCap <= 0 {
		return 5000
	}
	return c.IntermediateCap
}

func (c *Config) readBatch() int {
	switch {
	case c.ReadBatch == 0:
		return 1
	case c.ReadBatch < 0:
		return 0 // drain fully
	default:
		return c.ReadBatch
	}
}

// hostThreads runs a monitor's analysis threads, one per host (section
// 4.3).
type hostThreads struct {
	cs      *cosched.Set // the System's coscheduling controllers; nil: none
	stop    atomic.Bool
	waiters []*cosched.Waiter // the analysis threads' own, nil without coscheduling
	wg      vclock.WaitGroup
	once    sync.Once
}

func newHostThreads(cs *cosched.Set) *hostThreads {
	return &hostThreads{cs: cs}
}

// start runs one analysis thread per host. Each pass it checks for
// stop, waits for its host's coscheduling window, runs pass over host i
// with a thread-owned drain buffer, backs off when the pass processed
// nothing — the paper's threads block in the PastSet read of an empty
// trace buffer — and sleeps interval. The waiters are created here,
// before the threads run, so halt can close them.
func (t *hostThreads) start(hosts []*vnet.Host, interval time.Duration, pass func(i int, batch *[]byte) int) {
	t.waiters = make([]*cosched.Waiter, len(hosts))
	for i, h := range hosts {
		if t.cs != nil {
			t.waiters[i] = t.cs.For(h).NewWaiter()
		}
		w := t.waiters[i]
		t.wg.Add(1)
		vclock.Go(func() {
			defer t.wg.Done()
			var batch []byte
			for !t.stop.Load() {
				if w != nil && !w.Await() {
					return
				}
				if pass(i, &batch) == 0 {
					hrtime.Sleep(50 * time.Microsecond)
				}
				if interval > 0 {
					hrtime.Sleep(interval)
				}
			}
		})
	}
}

// halt stops every thread and waits for them. It closes only this
// monitor's waiters: the coscheduling controllers belong to the System
// and gate every other monitor's threads too.
func (t *hostThreads) halt() {
	t.once.Do(func() {
		t.stop.Store(true)
		for _, w := range t.waiters {
			if w != nil {
				w.Close()
			}
		}
	})
	t.wg.Wait()
}

// WeightedTree is the front-end structure the load-balance monitor
// maintains: for every collective wrapper, how many times each contributor
// arrived last. Visualizations weight the spanning-tree edges with it.
type WeightedTree struct {
	mu    sync.RWMutex
	nodes map[string]*weightedRow
}

// weightedRow is one node's contributor -> last-arrival count. A row
// with no counts yet is not part of the tree as readers see it.
type weightedRow struct {
	tree   *WeightedTree // whose mu guards counts
	counts map[int]uint64
}

// NewWeightedTree returns an empty weighted tree.
func NewWeightedTree() *WeightedTree {
	return &WeightedTree{nodes: make(map[string]*weightedRow)}
}

// row resolves a node's row once, for a writer that then adds to it
// without the name lookup (the replay's resolved ports).
func (w *WeightedTree) row(node string) *weightedRow {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rowLocked(node)
}

func (w *WeightedTree) rowLocked(node string) *weightedRow {
	r, ok := w.nodes[node]
	if !ok {
		r = &weightedRow{tree: w, counts: make(map[int]uint64)}
		w.nodes[node] = r
	}
	return r
}

// add folds last-arrival counts for the row's contributor.
func (r *weightedRow) add(contributor int, n uint64) {
	r.tree.mu.Lock()
	r.counts[contributor] += n
	r.tree.mu.Unlock()
}

// set overwrites the row's count for a contributor (cumulative
// intermediate results, where only the newest state matters).
func (r *weightedRow) set(contributor int, n uint64) {
	r.tree.mu.Lock()
	r.counts[contributor] = n
	r.tree.mu.Unlock()
}

// Add folds last-arrival counts for a node's contributor.
func (w *WeightedTree) Add(node string, contributor int, n uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rowLocked(node).counts[contributor] += n
}

// Nodes returns the node names present.
func (w *WeightedTree) Nodes() []string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	out := make([]string, 0, len(w.nodes))
	for n, r := range w.nodes {
		if len(r.counts) > 0 {
			out = append(out, n)
		}
	}
	return out
}

// Counts returns a copy of one node's contributor counts.
func (w *WeightedTree) Counts(node string) map[int]uint64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	var counts map[int]uint64
	if r, ok := w.nodes[node]; ok {
		counts = r.counts
	}
	out := make(map[int]uint64, len(counts))
	for k, v := range counts {
		out[k] = v
	}
	return out
}

// Total returns the sum of all counts (≈ observed rounds across nodes).
func (w *WeightedTree) Total() uint64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	var n uint64
	for _, r := range w.nodes {
		for _, v := range r.counts {
			n += v
		}
	}
	return n
}

// AnalysisTree is the front-end structure statsm's gather threads
// update: the newest statistics record per (wrapper id, latency kind).
// Visualization threads read it.
type AnalysisTree struct {
	mu      sync.RWMutex
	records map[uint32]map[uint8]analysis.StatsRecord
	updates uint64
}

// NewAnalysisTree returns an empty analysis tree.
func NewAnalysisTree() *AnalysisTree {
	return &AnalysisTree{records: make(map[uint32]map[uint8]analysis.StatsRecord)}
}

// Update installs a newer record.
func (a *AnalysisTree) Update(r analysis.StatsRecord) {
	a.mu.Lock()
	defer a.mu.Unlock()
	m, ok := a.records[r.ID]
	if !ok {
		m = make(map[uint8]analysis.StatsRecord)
		a.records[r.ID] = m
	}
	m[r.Kind] = r
	a.updates++
}

// Get returns the newest record for (id, kind).
func (a *AnalysisTree) Get(id uint32, kind int) (analysis.StatsRecord, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	r, ok := a.records[id][uint8(kind)]
	return r, ok
}

// IDs returns the wrapper ids present.
func (a *AnalysisTree) IDs() []uint32 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]uint32, 0, len(a.records))
	for id := range a.records {
		out = append(out, id)
	}
	return out
}
