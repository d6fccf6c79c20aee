// Package bench reproduces the paper's experiments (sections 5 and 6):
// the gsum and compute-gsum micro-benchmarks, the monitoring-overhead
// measurements behind Tables 1-3, the collection-cost microbenchmark of
// section 6.1, the per-topology allreduce latencies of section 5, and the
// scalability series of sections 6.2-6.3.
//
// A Run is a core.System run: it builds a system with one or more spanning
// trees, optionally attaches a monitor, runs the workload for a fixed
// number of iterations, and reports the modelled time together with the
// monitor's gather rates. Overhead compares a monitored run against an
// unmonitored base run of the same specification, repeated and averaged
// exactly as the paper averages at least three repetitions.
package bench

import (
	"fmt"
	"time"

	"eventspace/internal/cluster"
	"eventspace/internal/core"
	"eventspace/internal/cosched"
	"eventspace/internal/hrtime"
	"eventspace/internal/metrics"
	"eventspace/internal/monitor"
	"eventspace/internal/vclock"
)

// Workload selects the micro-benchmark.
type Workload int

// The paper's two micro-benchmarks.
const (
	// Gsum: threads alternate between identical allreduce trees
	// computing a global sum of 8-byte values.
	Gsum Workload = iota
	// ComputeGsum alternates between computing (integer sort in the
	// paper, modelled CPU occupancy here) and calling allreduce, tuned
	// to spend 50% of its time in each.
	ComputeGsum
)

// String names the workload.
func (w Workload) String() string {
	if w == ComputeGsum {
		return "compute-gsum"
	}
	return "gsum"
}

// MonitorKind selects what observes the run.
type MonitorKind int

// Monitor kinds, in increasing intrusiveness.
const (
	// NoMonitor runs an uninstrumented tree: the overhead baseline.
	NoMonitor MonitorKind = iota
	// CollectorsOnly instruments the tree but attaches no monitor:
	// the section 6.1 data-collection overhead.
	CollectorsOnly
	// LBSingleScope attaches the single-event-scope load-balance
	// monitor (Table 1).
	LBSingleScope
	// LBDistributed attaches the distributed-analysis load-balance
	// monitor (Table 2).
	LBDistributed
	// Statsm attaches the statistics monitor (Table 3).
	Statsm
	// StatsmNoGather runs statsm's analysis threads without the gather
	// threads (the "Analysis threads" rows of Table 3).
	StatsmNoGather
)

// String names the monitor kind.
func (m MonitorKind) String() string {
	switch m {
	case NoMonitor:
		return "none"
	case CollectorsOnly:
		return "collectors"
	case LBSingleScope:
		return "lb-single"
	case LBDistributed:
		return "lb-distributed"
	case Statsm:
		return "statsm"
	case StatsmNoGather:
		return "statsm-nogather"
	default:
		return fmt.Sprintf("monitor(%d)", int(m))
	}
}

// RunSpec describes one measured run.
type RunSpec struct {
	Testbed    cluster.TestbedSpec
	Fanout     int // host-level tree fanout (8 in the paper; <=0 flat)
	Trees      int // identical spanning trees the app alternates over (gsum uses 2)
	Workload   Workload
	Iterations int
	// ComputeDuration is compute-gsum's per-iteration modelled CPU work;
	// 0 lets TuneCompute pick it for a 50/50 split.
	ComputeDuration time.Duration
	Monitor         MonitorKind
	MonitorCfg      monitor.Config
	// MonitorTrees is how many of the trees the monitor observes
	// (default 1: the paper instruments both gsum trees but monitors
	// one; the scalability experiments monitor all).
	MonitorTrees int
	// TimeScale is kept for callers that still set it: a run is always
	// on the virtual clock at the paper's delays, so only 0 and 1 (both
	// meaning exactly that) are accepted. ROADMAP item 2(d) deletes it.
	TimeScale float64
	// TraceBufCap overrides the trace buffer size (default 3750).
	TraceBufCap int
	// SelfMetrics wires the run's collectors and monitors into a fresh
	// self-metrics registry and returns its snapshot in RunResult.Self —
	// the cost of monitoring the monitor.
	SelfMetrics bool
}

// RunResult is one run's measurements.
type RunResult struct {
	Duration time.Duration // wall time of the iteration loop
	PerOp    time.Duration // Duration / (Iterations * allreduces per iteration)
	Rounds   uint64

	// Monitor-side measurements (zero unless a monitor ran).
	GatherRate        float64 // LB monitors: tuple/intermediate gather rate
	WrapperGatherRate float64 // statsm
	ThreadGatherRate  float64 // statsm
	TraceReadRate     float64
	Messages          uint64 // network messages during the run

	// Self is the self-metrics snapshot (nil unless RunSpec.SelfMetrics).
	Self *metrics.Snapshot
}

// Run executes one specification as a core.System run under the
// discrete-event virtual clock and returns its measurements: the measured
// durations depend only on the model, never on how loaded or small the
// machine running the experiment is (section "Virtual time" in DESIGN.md).
// The whole run — set-up, both workloads, rate sampling and teardown —
// is one model goroutine, so every step happens at a fixed virtual
// instant and a run depends only on the clock's seed: no driver racing
// the monitors' timers between steps. A failed collective fails the run.
func Run(spec RunSpec) (RunResult, error) {
	if spec.Iterations <= 0 {
		return RunResult{}, fmt.Errorf("bench: iterations %d", spec.Iterations)
	}
	if spec.Monitor < NoMonitor || spec.Monitor > StatsmNoGather {
		return RunResult{}, fmt.Errorf("bench: unknown monitor kind %d", spec.Monitor)
	}
	if spec.TimeScale != 0 && spec.TimeScale != 1 {
		return RunResult{}, fmt.Errorf("bench: time scale %v: runs model delays at their configured value (0 or 1)", spec.TimeScale)
	}

	var res RunResult
	err := core.RunVirtual(func() error {
		var err error
		var done vclock.WaitGroup
		done.Add(1)
		vclock.Go(func() {
			defer done.Done()
			err = runSystem(spec, &res)
		})
		done.Wait()
		return err
	})
	return res, err
}

// runSystem assembles spec's system, attaches its monitors, drives the
// workload and samples the rates into res. It runs as a model goroutine.
func runSystem(spec RunSpec, res *RunResult) error {
	// Only the statistics monitor coschedules its analysis threads with
	// the application; a None waiter admits immediately.
	strategy := cosched.None
	if spec.Monitor == Statsm || spec.Monitor == StatsmNoGather {
		strategy = spec.MonitorCfg.Strategy
	}
	sys, err := core.New(spec.Testbed, strategy)
	if err != nil {
		return err
	}
	defer sys.Close()
	if spec.SelfMetrics {
		sys.UseMetrics(metrics.New())
	}

	trees := make([]*cluster.Tree, max(spec.Trees, 1))
	for i := range trees {
		trees[i], err = sys.BuildTree(cluster.TreeSpec{
			Name:           fmt.Sprintf("T%d", i+1),
			Fanout:         spec.Fanout,
			ThreadsPerHost: 1,
			Instrument:     spec.Monitor != NoMonitor,
			TraceBufCap:    spec.TraceBufCap,
			WANAllToAll:    spec.Testbed.WAN,
		})
		if err != nil {
			return err
		}
	}
	monitored := trees[:min(max(spec.MonitorTrees, 1), len(trees))]

	// Per the paper's methodology, event scopes are set up and analysis
	// threads started before the monitored application.
	var lbs []*monitor.LoadBalance
	var sms []*monitor.Statsm
	for _, tr := range monitored {
		switch spec.Monitor {
		case LBSingleScope, LBDistributed:
			mode := monitor.SingleScope
			if spec.Monitor == LBDistributed {
				mode = monitor.Distributed
			}
			lb, err := sys.AttachLoadBalance(tr, mode, spec.MonitorCfg)
			if err != nil {
				return err
			}
			lbs = append(lbs, lb)
		case Statsm:
			sm, err := sys.AttachStatsm(tr, spec.MonitorCfg)
			if err != nil {
				return err
			}
			sms = append(sms, sm)
		case StatsmNoGather:
			// The System attaches whole monitors only; the analysis-only
			// rows of Table 3 start and stop theirs here.
			cfg := spec.MonitorCfg
			if cfg.Metrics == nil {
				cfg.Metrics = sys.Metrics()
			}
			sm, err := monitor.NewStatsm(sys.Testbed(), tr, cfg, sys.Cosched(), nil)
			if err != nil {
				return err
			}
			sm.StartAnalysisOnly()
			defer sm.Stop()
			sms = append(sms, sm)
		}
	}

	wl := core.Workload{Trees: trees, Iterations: 10}
	if spec.Workload == ComputeGsum {
		wl.Compute = spec.ComputeDuration
	}
	// Warm up connections and steady state (not measured).
	if _, err := sys.RunWorkload(wl); err != nil {
		return err
	}
	msgsBefore := sys.Testbed().Net.Messages()
	wl.Iterations = spec.Iterations
	duration, err := sys.RunWorkload(wl)
	if err != nil {
		return err
	}
	*res = RunResult{
		Duration: duration,
		PerOp:    duration / time.Duration(spec.Iterations),
		Rounds:   uint64(spec.Iterations),
		Messages: sys.Testbed().Net.Messages() - msgsBefore,
	}
	// Give gather threads a short drain window before sampling rates,
	// mirroring the paper's monitors which keep running after the app.
	if len(lbs)+len(sms) > 0 {
		hrtime.Sleep(20 * time.Millisecond)
	}
	for _, lb := range lbs {
		res.GatherRate += lb.GatherRate() / float64(len(lbs))
		res.TraceReadRate += lb.TraceReadRate() / float64(len(lbs))
	}
	for _, sm := range sms {
		res.WrapperGatherRate += sm.WrapperGatherRate() / float64(len(sms))
		res.ThreadGatherRate += sm.ThreadGatherRate() / float64(len(sms))
		res.TraceReadRate += sm.TraceReadRate() / float64(len(sms))
	}
	if reg := sys.Metrics(); reg != nil {
		snap := reg.Snapshot()
		res.Self = &snap
	}
	return nil
}

// TuneCompute measures the base allreduce latency of the spec's topology
// and returns the per-iteration compute duration giving compute-gsum its
// 50/50 split (section 5). The probe runs unmonitored.
func TuneCompute(spec RunSpec, probeIterations int) (time.Duration, error) {
	probe := spec
	probe.Workload = Gsum
	probe.Trees = 1
	probe.Monitor = NoMonitor
	probe.Iterations = probeIterations
	res, err := Run(probe)
	if err != nil {
		return 0, err
	}
	// PerOp is modelled time per allreduce, the unit compute is given in.
	return res.PerOp, nil
}

// Overhead runs the base (unmonitored) and monitored variants of spec
// `repeats` times each and returns the relative overhead
// (monitored - base) / base together with the averaged monitored result.
func Overhead(spec RunSpec, repeats int) (float64, RunResult, error) {
	if repeats < 1 {
		repeats = 1
	}
	base := spec
	base.Monitor = NoMonitor

	var baseSum, monSum time.Duration
	var last RunResult
	for i := 0; i < repeats; i++ {
		b, err := Run(base)
		if err != nil {
			return 0, RunResult{}, err
		}
		baseSum += b.Duration
		m, err := Run(spec)
		if err != nil {
			return 0, RunResult{}, err
		}
		monSum += m.Duration
		last = m
	}
	baseAvg := baseSum / time.Duration(repeats)
	monAvg := monSum / time.Duration(repeats)
	last.Duration = monAvg
	overhead := float64(monAvg-baseAvg) / float64(baseAvg)
	return overhead, last, nil
}
