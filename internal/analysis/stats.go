// Package analysis computes the performance metrics of section 3 from
// trace tuples: up/down/total latencies per wrapper, the two-way TCP/IP
// latency formula, arrival and departure order distributions, arrival and
// departure wait times, and the streaming statistics (mean, minimum,
// maximum, standard deviation, and the NWS sliding-window median) the
// statistics monitor maintains per wrapper.
//
// The recovery checkpointer runs these beside every archived tuple, so
// the per-tuple paths are built to cost a lookup, a store and a few
// arithmetic operations and to allocate nothing once warm: rounds join
// in recycled fixed-size slots (Rounds, under Joiner and the load-balance
// monitor's join alike), a completed round is analyzed over the
// joiner's own scratch, and a Stream keeps only what its snapshot
// stores, computing the median when it is asked for.
package analysis

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// DefaultMedianWindow is the sliding-window size the paper uses for the
// NWS median implementation (section 4.3: "window size set to 100").
const DefaultMedianWindow = 100

// MaxMedianWindow bounds the sliding window: a stream allocates its
// window when it is built, and a snapshot's window comes from a file.
const MaxMedianWindow = 1 << 16

// Stream maintains streaming statistics over a series of float64 samples:
// Welford mean/variance, min/max, and a sliding-window median. The only
// window state it keeps is the ring of the last `window` samples — what
// a snapshot stores — so folding a sample is a few arithmetic operations
// and one store; the median is selected from a copy of the ring when it
// is asked for. A Stream has a single owner: Add and Median both write
// to it, so concurrent use needs the caller's lock.
type Stream struct {
	n       uint64
	mean    float64
	m2      float64
	min     float64
	max     float64
	window  int
	ring    []float64 // last `window` samples; capacity window, allocated once
	head    int       // oldest sample, once the ring is full
	scratch []float64 // Median's working copy of the ring
}

// NewStream creates a stream with the given median window (values < 1 use
// DefaultMedianWindow, values above MaxMedianWindow use that).
func NewStream(window int) *Stream {
	if window < 1 {
		window = DefaultMedianWindow
	}
	window = min(window, MaxMedianWindow)
	return &Stream{window: window, ring: make([]float64, 0, window)}
}

// Add folds a sample into the statistics.
//
//lint:hotpath five calls per folded contributor tuple
func (s *Stream) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	// Welford's online mean and variance.
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)

	// The window: fill the ring, then overwrite the oldest sample.
	if n := len(s.ring); n < s.window {
		s.ring = s.ring[:n+1]
		s.ring[n] = x
		return
	}
	s.ring[s.head] = x
	s.head++
	if s.head == s.window {
		s.head = 0
	}
}

// Std returns the sample standard deviation (0 with fewer than 2 samples).
func (s *Stream) Std() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// Median returns the median of the sliding window (0 with no samples):
// the middle sample of the window in sorted order, or the mean of the
// middle two.
func (s *Stream) Median() float64 {
	n := len(s.ring)
	if n == 0 {
		return 0
	}
	s.scratch = append(s.scratch[:0], s.ring...)
	upper := SelectKth(s.scratch, n/2)
	if n%2 == 1 {
		return upper
	}
	// Everything before the selected element is no larger than it, so
	// the other middle sample is the largest of those.
	return (slices.Max(s.scratch[:n/2]) + upper) / 2
}

// SelectKth reorders a so that a[k] is its k-th smallest element, with
// nothing larger before it and nothing smaller after it, and returns
// a[k]. The extreme ranks take one linear scan for the maximum (k is
// the last index) or the minimum (k = 0) and a swap into place: a
// nearest-rank p99 over fewer than 101 values is always the maximum.
// Any other rank takes Hoare's selection: partition around the middle
// element, keep the side holding k. A median costs a few passes over
// the window where sorting it would cost a dozen. It is the one
// selection routine in the tree: the sliding-window median here and
// esql's nearest-rank percentiles. k must index a; a must hold no NaN.
func SelectKth[T cmp.Ordered](a []T, k int) T {
	switch m, x := k, a[k]; k {
	case len(a) - 1:
		for i, v := range a {
			if v > x {
				m, x = i, v
			}
		}
		a[m], a[k] = a[k], x
		return x
	case 0:
		for i, v := range a {
			if v < x {
				m, x = i, v
			}
		}
		a[m], a[k] = a[k], x
		return x
	}
	lo, hi := 0, len(a)-1
	for lo < hi {
		pivot := a[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
	}
	return a[k]
}

// Snapshot returns the stream's statistics as a Result.
func (s *Stream) Snapshot() Result {
	return Result{
		Count:  s.n,
		Mean:   s.mean,
		Min:    s.min,
		Max:    s.max,
		Std:    s.Std(),
		Median: s.Median(),
	}
}

// Result is a snapshot of a stream's statistics.
type Result struct {
	Count  uint64
	Mean   float64
	Min    float64
	Max    float64
	Std    float64
	Median float64
}

// String formats a result for tables and logs.
func (r Result) String() string {
	return fmt.Sprintf("n=%d mean=%.1f min=%.1f max=%.1f std=%.1f median=%.1f",
		r.Count, r.Mean, r.Min, r.Max, r.Std, r.Median)
}
