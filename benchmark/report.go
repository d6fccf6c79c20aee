package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

// measured is one metric of one run: the median of its samples, their
// quartiles, and how many there were.
type measured struct {
	Median float64 `json:"median"`
	Unit   string  `json:"unit"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// goodSide is the quartile of the metric's samples on its good side — the
// first for a metric that is better lower, the third for one that is
// better higher. On a shared two-core machine interference from outside
// only ever slows a pass, and a disturbed stretch drags the median with
// it; the quartile on the undisturbed side repeats from run to run better.
// The median and both quartiles are still printed and kept in -out records.
func (m measured) goodSide(better string) float64 {
	if better == "higher" {
		return m.Q3
	}
	return m.Q1
}

// report collects a run's metrics and the verdict of its reference checks.
type report struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	// Slowdown is how much slower than nominal the calibration kernel ran
	// during the run (see calibrate.go); 1 is the reference speed.
	Slowdown  float64             `json:"slowdown"`
	Metrics   map[string]measured `json:"metrics"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Problems  []string            `json:"problems,omitempty"`
	notes     []string
}

func newReport(cfg config) *report {
	return &report{Workload: cfg.Workload.Name, Seed: cfg.Seed, Trace: cfg.Trace, Metrics: make(map[string]measured)}
}

// set records a repeatedly sampled metric.
func (r *report) set(name, unit string, s sample) {
	q1, med, q3 := s.quartiles()
	r.Metrics[name] = measured{Median: med, Unit: unit, Q1: q1, Q3: q3, N: len(s)}
}

// setValue records a metric measured once per run.
func (r *report) setValue(name, unit string, v float64) {
	r.Metrics[name] = measured{Median: v, Unit: unit, Q1: v, Q3: v, N: 1}
}

// setTail records the highest percentile of s that has at least ten
// samples beyond it.
func (r *report) setTail(name, unit string, s sample) {
	v, p := s.tail()
	r.Metrics[name] = measured{Median: v, Unit: unit, Q1: v, Q3: v, N: len(s)}
	r.note("%s is p%g of %d samples", name, p*100, len(s))
}

// attempt counts n checked operations.
func (r *report) attempt(n int) { r.Attempted += n }

// fail counts n operations whose result differed from the reference.
func (r *report) fail(n int, format string, args ...any) {
	r.Failed += n
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return r.Failed == 0 }

// peakRSSMB is this process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// spec is the parsed BENCHMARK.json: the contract this program prints to.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// specFile is the contract's file name, looked for in the working
// directory and its parents.
const specFile = "BENCHMARK.json"

// findRoot returns the root of the checkout: the nearest directory that
// holds BENCHMARK.json at or above the working directory or, failing that,
// at or above the program's own file (run.sh builds it into the checkout).
func findRoot() (string, error) {
	var starts []string
	if wd, err := os.Getwd(); err == nil {
		starts = append(starts, wd)
	}
	if exe, err := os.Executable(); err == nil {
		starts = append(starts, filepath.Dir(exe))
	}
	for _, dir := range starts {
		for {
			if _, err := os.Stat(filepath.Join(dir, specFile)); err == nil {
				return dir, nil
			}
			parent := filepath.Dir(dir)
			if parent == dir {
				break
			}
			dir = parent
		}
	}
	return "", fmt.Errorf("%s not found above the working directory or the program", specFile)
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, specFile))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", specFile, err)
	}
	return &s, nil
}

// reported is the one number the run answers with for a metric of the
// contract: the good-side quartile of its samples and, for an end-to-end
// timing or rate, that value at the reference speed — divided or
// multiplied by the run's slowdown. Per-layer metrics are never scaled.
func (r *report) reported(m metricSpec, endToEnd bool) float64 {
	v := r.Metrics[m.Name].goodSide(m.Better)
	if !endToEnd || r.Slowdown <= 0 {
		return v
	}
	switch {
	case m.Unit == "ns" || m.Unit == "us" || m.Unit == "ms" || m.Unit == "s":
		return v / r.Slowdown
	case strings.HasSuffix(m.Unit, "/s"):
		return v * r.Slowdown
	}
	return v
}

// wanted is the metric list a run answers with: the end-to-end metrics
// untraced, the per-layer metrics traced.
func (s *spec) wanted(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// result renders the run as the one JSON object the contract asks for as
// the last line of standard output. Every wanted metric must have been
// measured, as a finite number.
func (r *report) result(want []metricSpec, endToEnd bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, make(map[string]value)}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		v := r.reported(m, endToEnd)
		switch {
		case !ok:
			return "", fmt.Errorf("metric %s was not measured", m.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return "", fmt.Errorf("metric %s is %v", m.Name, v)
		case got.Unit != m.Unit:
			return "", fmt.Errorf("metric %s measured in %s, %s says %s", m.Name, got.Unit, specFile, m.Unit)
		}
		out.Metrics[m.Name] = value{v, got.Unit}
	}
	line, err := json.Marshal(out)
	return string(line), err
}

// print writes every metric the run measured, by name with its unit: the
// wanted ones first in the contract's order, then any others.
func (r *report) print(w io.Writer, want []metricSpec, endToEnd bool) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  slowdown %.3f (end-to-end timings are reported at reference speed)\n",
		r.Workload, r.Seed, r.Trace, r.Slowdown)
	fmt.Fprintf(w, "  %-38s %14s %-9s %14s %14s %14s %6s\n", "metric", "reported", "unit", "q1", "median", "q3", "n")
	row := func(name, reported string) {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-38s %14s %-9s %14.6g %14.6g %14.6g %6d\n", name, reported, m.Unit, m.Q1, m.Median, m.Q3, m.N)
	}
	listed := make(map[string]bool)
	for _, m := range want {
		if _, ok := r.Metrics[m.Name]; ok {
			row(m.Name, fmt.Sprintf("%.6g", r.reported(m, endToEnd)))
			listed[m.Name] = true
		}
	}
	var rest []string
	for name := range r.Metrics {
		if !listed[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	if len(rest) > 0 {
		fmt.Fprintf(w, "  -- also measured --\n")
	}
	for _, name := range rest {
		row(name, "-") // only a metric the contract lists is reported
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintf(w, "  ops %d  failed %d\n", r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", strings.TrimSpace(p))
	}
}
