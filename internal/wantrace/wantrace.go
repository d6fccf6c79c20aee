// Package wantrace reproduces the Longcut WAN emulator's delay model.
//
// The paper emulates WAN links between sub-clusters by routing all traffic
// through per-sub-cluster gateways that add delays computed from a latency
// and bandwidth trace collected between hosts in Tromsø, Trondheim, Odense
// and Aalborg (largest latency Tromsø-Aalborg, about 36 ms).
//
// The original trace is not available, so this package generates a
// synthetic trace that is shape-faithful to the published description: the
// published base round-trip latencies per site pair, WAN-class bandwidths,
// and mild time-varying jitter from a deterministic PRNG. The emulator
// also reproduces Longcut's documented weakness — delays become inaccurate
// when many emulated connections are active concurrently — behind an
// explicit knob, because one Table 1 row depends on it.
package wantrace

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// The paper's four sites.
const (
	Tromso    = "tromso"
	Trondheim = "trondheim"
	Odense    = "odense"
	Aalborg   = "aalborg"
)

// Sites lists the trace sites in a stable order.
func Sites() []string { return []string{Tromso, Trondheim, Odense, Aalborg} }

// PairSpec is the base characteristics of one site pair.
type PairSpec struct {
	RTT       time.Duration // base round-trip time
	Bandwidth float64       // bytes per second
}

// pairKey is an order-independent site-pair key.
type pairKey struct{ a, b string }

func keyOf(a, b string) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

// basePairs holds the published topology. Only the Tromsø-Aalborg figure
// (~36 ms, the maximum) is stated in the paper; the remaining pairs are
// set to geographically plausible values below that maximum.
var basePairs = map[pairKey]PairSpec{
	keyOf(Tromso, Trondheim):  {RTT: 14 * time.Millisecond, Bandwidth: 6e6},
	keyOf(Tromso, Odense):     {RTT: 30 * time.Millisecond, Bandwidth: 4e6},
	keyOf(Tromso, Aalborg):    {RTT: 36 * time.Millisecond, Bandwidth: 4e6},
	keyOf(Trondheim, Odense):  {RTT: 22 * time.Millisecond, Bandwidth: 5e6},
	keyOf(Trondheim, Aalborg): {RTT: 26 * time.Millisecond, Bandwidth: 5e6},
	keyOf(Odense, Aalborg):    {RTT: 8 * time.Millisecond, Bandwidth: 8e6},
}

// BasePair returns the base spec for a site pair.
func BasePair(a, b string) (PairSpec, error) {
	if a == b {
		return PairSpec{}, fmt.Errorf("wantrace: %q and %q are the same site", a, b)
	}
	s, ok := basePairs[keyOf(a, b)]
	if !ok {
		return PairSpec{}, fmt.Errorf("wantrace: unknown site pair %q-%q", a, b)
	}
	return s, nil
}

// Sample is one observation in a latency/bandwidth trace.
type Sample struct {
	RTT       time.Duration
	Bandwidth float64
}

// Trace is a sequence of per-pair samples, as collected by the paper's
// instrumented communication-intensive application.
type Trace struct {
	pairs map[pairKey][]Sample
}

// Generate builds a deterministic synthetic trace with n samples per site
// pair. Each sample jitters the base RTT by up to ±10% and the bandwidth
// by up to ±20%, mimicking the variation of a real WAN measurement run.
func Generate(seed int64, n int) *Trace {
	if n < 1 {
		n = 1
	}
	tr := &Trace{pairs: make(map[pairKey][]Sample)}
	for k, base := range basePairs {
		// Per-pair seed derived from the pair name keeps the trace
		// deterministic regardless of map iteration order.
		var pairSeed int64 = seed
		for _, c := range k.a + "|" + k.b {
			pairSeed = pairSeed*31 + int64(c)
		}
		rng := rand.New(rand.NewSource(pairSeed))
		samples := make([]Sample, n)
		for i := range samples {
			lj := 1 + (rng.Float64()*2-1)*0.10
			bj := 1 + (rng.Float64()*2-1)*0.20
			samples[i] = Sample{
				RTT:       time.Duration(float64(base.RTT) * lj),
				Bandwidth: base.Bandwidth * bj,
			}
		}
		tr.pairs[k] = samples
	}
	return tr
}

// Len returns the number of samples per pair.
func (t *Trace) Len() int {
	for _, s := range t.pairs {
		return len(s)
	}
	return 0
}

// SampleAt returns the i-th sample for a site pair, wrapping around the
// trace length.
func (t *Trace) SampleAt(a, b string, i int) (Sample, error) {
	s, ok := t.pairs[keyOf(a, b)]
	if !ok {
		return Sample{}, fmt.Errorf("wantrace: unknown site pair %q-%q", a, b)
	}
	if len(s) == 0 {
		return Sample{}, fmt.Errorf("wantrace: empty trace for %q-%q", a, b)
	}
	if i < 0 {
		i = -i
	}
	return s[i%len(s)], nil
}

// Emulator is the Longcut delay engine: given a message's site pair and
// size it returns the one-way delay a gateway should impose, walking the
// trace so repeated calls see the recorded variation.
type Emulator struct {
	trace *Trace

	// InaccuracyThreshold is the number of concurrently emulated
	// in-flight messages above which delays degrade (Longcut's documented
	// behaviour with many emulated connections). Zero disables the
	// effect.
	InaccuracyThreshold int
	// InaccuracyFactor scales the extra delay applied per in-flight
	// message above the threshold (fraction of base delay).
	InaccuracyFactor float64

	mu       sync.Mutex
	cursor   map[pairKey]int
	inflight atomic.Int64

	degraded atomic.Uint64 // messages that received degraded delays
}

// NewEmulator creates an emulator over the given trace.
func NewEmulator(trace *Trace) *Emulator {
	return &Emulator{
		trace:            trace,
		InaccuracyFactor: 0.05,
		cursor:           make(map[pairKey]int),
	}
}

// Delay returns the modelled one-way delay for a message of size bytes
// between two sites: half the sampled RTT plus size/bandwidth, degraded
// when more messages are in flight than the emulator can time accurately.
// Unknown pairs fall back to the worst base pair so traffic is never
// silently free.
func (e *Emulator) Delay(fromSite, toSite string, size int) time.Duration {
	k := keyOf(fromSite, toSite)
	e.mu.Lock()
	i := e.cursor[k]
	e.cursor[k] = i + 1
	e.mu.Unlock()

	s, err := e.trace.SampleAt(fromSite, toSite, i)
	if err != nil {
		s = Sample{RTT: 36 * time.Millisecond, Bandwidth: 4e6}
	}
	d := s.RTT / 2
	if s.Bandwidth > 0 && size > 0 {
		d += time.Duration(float64(size) / s.Bandwidth * float64(time.Second))
	}
	n := e.inflight.Add(1)
	defer e.inflight.Add(-1)
	if e.InaccuracyThreshold > 0 && int(n) > e.InaccuracyThreshold {
		over := float64(int(n) - e.InaccuracyThreshold)
		d += time.Duration(over * e.InaccuracyFactor * float64(d))
		e.degraded.Add(1)
	}
	return d
}

// MaxRTT returns the largest base RTT in the topology (Tromsø-Aalborg).
func MaxRTT() time.Duration {
	var max time.Duration
	for _, s := range basePairs {
		if s.RTT > max {
			max = s.RTT
		}
	}
	return max
}
