package bench

import (
	"fmt"
	"math"
	"strings"
	"time"

	"eventspace/internal/cluster"
	"eventspace/internal/cosched"
	"eventspace/internal/monitor"
)

// Options scales the experiment suite. Full reproduces the paper's host
// counts; Quick shrinks hosts and iterations so the whole suite runs in a
// few minutes.
type Options struct {
	Quick   bool
	Repeats int // run repetitions per measurement (paper: >= 3)
	WANSeed int64
}

// DefaultOptions returns the full-size configuration.
func DefaultOptions() Options {
	return Options{Repeats: 3, WANSeed: 2005}
}

// QuickOptions returns the scaled-down configuration used by `go test
// -bench` and CI.
func QuickOptions() Options {
	return Options{Quick: true, Repeats: 2, WANSeed: 2005}
}

func (o Options) repeats() int {
	if o.Repeats < 1 {
		return 1
	}
	return o.Repeats
}

// Topology sizes. Paper: 32 and 49 Tin hosts; the LAN multi-cluster has
// 43 Tin + 39 Iron; the largest LAN topology 49 Tin + 18 Copper + 10 Lead;
// the WAN multi-cluster splits Tin and Iron into three sub-clusters each.
func (o Options) tin32() int {
	if o.Quick {
		return 16
	}
	return 32
}

func (o Options) tin49() int {
	if o.Quick {
		return 20
	}
	return 49
}

func (o Options) lanTin() int {
	if o.Quick {
		return 20
	}
	return 43
}

func (o Options) lanIron() int {
	if o.Quick {
		return 20
	}
	return 39
}

func (o Options) wanSub() (tin, iron int) {
	if o.Quick {
		return 2, 2
	}
	return 14, 13
}

func (o Options) lanIterations() int {
	if o.Quick {
		return 400
	}
	return 1500
}

func (o Options) wanIterations() int {
	// Quick runs need enough iterations that sequential gathering falls
	// measurably behind the bounded trace buffers (traceCap clamps to 32
	// here): at 40 the cursor lag peaks just under the cap and the
	// sequential-vs-parallel rate crossover becomes a scheduling race.
	if o.Quick {
		return 100
	}
	return 120
}

// traceCap sizes trace buffers relative to the iteration count, keeping
// the paper's ratio of buffer lifetime to run length (3750 tuples against
// 20k iterations, ~0.19) so the gather-rate dynamics reproduce at our
// shorter run lengths.
func traceCap(iterations int) int {
	c := iterations / 5
	if c < 32 {
		c = 32
	}
	return c
}

// Row is one table row of an experiment: a configuration, its measured
// overhead and rates, and the paper's reported figures for EXPERIMENTS.md.
type Row struct {
	Table    string
	Config   string
	Workload string

	Overhead  float64 // fraction; NaN if not measured
	Discarded bool    // sequential gathering could not keep up

	GatherRate        float64 // LB monitors
	WrapperGatherRate float64 // statsm
	ThreadGatherRate  float64 // statsm
	TraceReadRate     float64

	PerOp    time.Duration
	Duration time.Duration

	Paper string // the paper's reported result for this row
}

// FormatOverhead renders an overhead the way the paper's tables do:
// "none" below the noise floor, otherwise a percentage.
func FormatOverhead(f float64) string {
	if math.IsNaN(f) {
		return "-"
	}
	pct := f * 100
	if pct < 0.5 {
		return "none"
	}
	return fmt.Sprintf("%.1f%%", pct)
}

// FormatRate renders a gather rate as a percentage.
func FormatRate(f float64) string {
	if f == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", f*100)
}

// String renders a row for logs.
func (r Row) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s overhead=%-6s", r.Config, FormatOverhead(r.Overhead))
	if r.Discarded {
		b.WriteString(" tuples-discarded")
	}
	if r.GatherRate > 0 {
		fmt.Fprintf(&b, " gather=%s", FormatRate(r.GatherRate))
	}
	if r.WrapperGatherRate > 0 {
		fmt.Fprintf(&b, " wrapper=%s thread=%s", FormatRate(r.WrapperGatherRate), FormatRate(r.ThreadGatherRate))
	}
	if r.Paper != "" {
		fmt.Fprintf(&b, "   [paper: %s]", r.Paper)
	}
	return b.String()
}

// topologies returns the named testbeds of the evaluation.
func (o Options) topo(name string) (cluster.TestbedSpec, int, string) {
	switch name {
	case "tin32":
		return cluster.SingleTin(o.tin32()), o.lanIterations(), fmt.Sprintf("%d Tins", o.tin32())
	case "tin49":
		return cluster.SingleTin(o.tin49()), o.lanIterations(), fmt.Sprintf("%d Tins", o.tin49())
	case "lan":
		return cluster.LANMulti(o.lanTin(), o.lanIron()), o.lanIterations(), "LAN multi-cluster"
	case "wan":
		tin, iron := o.wanSub()
		return cluster.WANMulti(tin, iron, o.WANSeed, 0), o.wanIterations(), "WAN multi-cluster"
	case "wan-overloaded":
		tin, iron := o.wanSub()
		// The Longcut inaccuracy threshold reproduces the paper's
		// "WAN emulator becomes inaccurate with many emulated
		// connections" row of Table 1.
		return cluster.WANMulti(tin, iron, o.WANSeed, 8), o.wanIterations(), "WAN multi-cluster"
	default:
		panic("bench: unknown topology " + name)
	}
}

// lbSpec builds the RunSpec for a load-balance experiment row.
func (o Options) lbSpec(topology string, kind MonitorKind, parallel bool, wl Workload) RunSpec {
	tb, iters, _ := o.topo(topology)
	cfg := monitor.DefaultConfig()
	cfg.AnalysisInterval = 500 * time.Microsecond
	cfg.PullInterval = 400 * time.Microsecond
	cfg.IntermediateCap = traceCap(iters)
	if parallel {
		cfg.GatewayHelpers, cfg.RootHelpers = 4, 4
	} else {
		cfg.GatewayHelpers, cfg.RootHelpers = 0, 0
	}
	trees := 2
	if wl == ComputeGsum {
		// compute-gsum alternates computation with a single allreduce
		// tree; only gsum uses two identical trees.
		trees = 1
	}
	spec := RunSpec{
		Testbed:     tb,
		Fanout:      8,
		Trees:       trees,
		Workload:    wl,
		Iterations:  iters,
		Monitor:     kind,
		MonitorCfg:  cfg,
		TraceBufCap: traceCap(iters),
	}
	return spec
}

func seqPar(parallel bool) string {
	if parallel {
		return "parallel"
	}
	return "sequential"
}

// discardedThreshold: below this gather rate a sequential configuration
// "discards tuples" in the paper's terms.
const discardedThreshold = 0.90

// Section61Collection reproduces the data-collection results of section
// 6.1: the overhead of event collectors alone on gsum, and the per-call
// trace storage of the busiest host.
func Section61Collection(o Options) ([]Row, error) {
	var rows []Row
	for _, wl := range []Workload{Gsum, ComputeGsum} {
		spec := o.lbSpec("tin32", CollectorsOnly, false, wl)
		if wl == ComputeGsum {
			d, err := TuneCompute(spec, 60)
			if err != nil {
				return nil, err
			}
			spec.ComputeDuration = d
		}
		ov, res, err := Overhead(spec, o.repeats())
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{
			Table:    "sec6.1",
			Config:   "event collectors (" + wl.String() + ")",
			Workload: wl.String(),
			Overhead: ov,
			PerOp:    res.PerOp,
			Duration: res.Duration,
			Paper:    "0-2%",
		})
	}
	return rows, nil
}

// Section5Topology reproduces the per-topology allreduce latencies quoted
// in section 5 (about 0.5 ms for 32 Tins, 0.6 ms for 49 Tins, ~1 ms for a
// LAN multi-cluster and ~65 ms for a WAN multi-cluster).
func Section5Topology(o Options) ([]Row, error) {
	paper := map[string]string{
		"tin32": "~0.5 ms", "tin49": "~0.6 ms", "lan": "~1 ms", "wan": "~65 ms",
	}
	var rows []Row
	for _, name := range []string{"tin32", "tin49", "lan", "wan"} {
		tb, iters, label := o.topo(name)
		spec := RunSpec{
			Testbed:    tb,
			Fanout:     8,
			Trees:      1,
			Workload:   Gsum,
			Iterations: iters,
			Monitor:    NoMonitor,
		}
		res, err := Run(spec)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{
			Table:    "sec5",
			Config:   label,
			Workload: "gsum",
			Overhead: math.NaN(),
			PerOp:    res.PerOp,
			Duration: res.Duration,
			Paper:    paper[name],
		})
	}
	return rows, nil
}

// Table1 reproduces the load-balance monitor with a single event scope
// (compute-gsum; sequential gathering discards tuples on the LAN
// topologies, parallel gathering keeps up with at most 0.4% overhead, and
// the WAN row shows ~1% caused by emulator inaccuracy).
func Table1(o Options) ([]Row, error) {
	type cfg struct {
		topo     string
		parallel bool
		paper    string
	}
	configs := []cfg{
		{"tin32", false, "tuples discarded"},
		{"tin32", true, "0.4%"},
		{"lan", false, "tuples discarded"},
		{"lan", true, "none"},
		{"wan-overloaded", false, "1%"},
	}
	var rows []Row
	for _, c := range configs {
		spec := o.lbSpec(c.topo, LBSingleScope, c.parallel, ComputeGsum)
		d, err := TuneCompute(spec, 60)
		if err != nil {
			return nil, err
		}
		spec.ComputeDuration = d
		ov, res, err := Overhead(spec, o.repeats())
		if err != nil {
			return nil, err
		}
		_, _, label := o.topo(c.topo)
		rows = append(rows, Row{
			Table:         "table1",
			Config:        label + ", " + seqPar(c.parallel),
			Workload:      "compute-gsum",
			Overhead:      ov,
			Discarded:     res.GatherRate < discardedThreshold,
			GatherRate:    res.GatherRate,
			TraceReadRate: res.TraceReadRate,
			PerOp:         res.PerOp,
			Duration:      res.Duration,
			Paper:         c.paper,
		})
	}
	return rows, nil
}

// Table2 reproduces the load-balance monitor with distributed analysis:
// overheads of 0-3% and gather rates from 45% (sequential) to ~100%
// (parallel).
func Table2(o Options) ([]Row, error) {
	type cfg struct {
		topo     string
		parallel bool
		wl       Workload
		paper    string
	}
	configs := []cfg{
		{"tin49", false, Gsum, "2% / 51%"},
		{"tin49", true, Gsum, "2% / 99%"},
		{"tin49", false, ComputeGsum, "1% / 65%"},
		{"tin49", true, ComputeGsum, "1% / 99%"},
		{"lan", false, ComputeGsum, "none / 45%"},
		{"lan", true, ComputeGsum, "3% / 100%"},
		{"wan", false, ComputeGsum, "1% / 94%"},
		{"wan", true, ComputeGsum, "3% / 100%"},
	}
	var rows []Row
	for _, c := range configs {
		spec := o.lbSpec(c.topo, LBDistributed, c.parallel, c.wl)
		if c.wl == ComputeGsum {
			d, err := TuneCompute(spec, 60)
			if err != nil {
				return nil, err
			}
			spec.ComputeDuration = d
		}
		ov, res, err := Overhead(spec, o.repeats())
		if err != nil {
			return nil, err
		}
		_, _, label := o.topo(c.topo)
		name := label + ", " + seqPar(c.parallel)
		if c.wl == Gsum {
			name += " (gsum)"
		}
		rows = append(rows, Row{
			Table:         "table2",
			Config:        name,
			Workload:      c.wl.String(),
			Overhead:      ov,
			GatherRate:    res.GatherRate,
			TraceReadRate: res.TraceReadRate,
			PerOp:         res.PerOp,
			Duration:      res.Duration,
			Paper:         c.paper,
		})
	}
	return rows, nil
}

// statsmSpec builds the RunSpec for a statsm row.
func (o Options) statsmSpec(topology string, kind MonitorKind, parallel bool, strategy cosched.Strategy) RunSpec {
	tb, iters, _ := o.topo(topology)
	cfg := monitor.DefaultConfig()
	cfg.Strategy = strategy
	cfg.IntermediateCap = traceCap(iters)
	cfg.ReadBatch = 5
	cfg.PullInterval = 400 * time.Microsecond
	if parallel {
		cfg.GatewayHelpers, cfg.RootHelpers = 4, 4
	} else {
		cfg.GatewayHelpers, cfg.RootHelpers = 0, 0
	}
	return RunSpec{
		Testbed:     tb,
		Fanout:      8,
		Trees:       2,
		Workload:    Gsum,
		Iterations:  iters,
		Monitor:     kind,
		MonitorCfg:  cfg,
		TraceBufCap: traceCap(iters),
	}
}

// Table3 reproduces the statistics monitor: analysis threads alone cost
// 5-9%, coscheduling strategy 1 cuts that to 3%, strategy 2 to 1%; with
// gathering the overhead stays ~2% and parallel gathering lifts the
// wrapper/thread gather rates to ~99-100%.
func Table3(o Options) ([]Row, error) {
	var rows []Row

	// Analysis-threads-only rows with the three scheduling regimes.
	sched := []struct {
		strategy cosched.Strategy
		config   string
		paper    string
	}{
		{cosched.None, "analysis threads", "5-9%"},
		{cosched.AfterSend, "with coscheduling 1", "3%"},
		{cosched.AfterUnblock, "with coscheduling 2", "1%"},
	}
	for _, s := range sched {
		spec := o.statsmSpec("tin32", StatsmNoGather, false, s.strategy)
		ov, res, err := Overhead(spec, o.repeats())
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{
			Table:         "table3",
			Config:        s.config,
			Workload:      "gsum",
			Overhead:      ov,
			TraceReadRate: res.TraceReadRate,
			PerOp:         res.PerOp,
			Duration:      res.Duration,
			Paper:         s.paper,
		})
	}

	// Full monitor (analysis + two gather threads), strategy 2.
	full := []struct {
		topo     string
		parallel bool
		paper    string
	}{
		{"tin32", false, "2% / 50% / 69%"},
		{"tin32", true, "2% / 77% / 99%"},
		{"lan", false, "(masked) / 43% / 68%"},
		{"lan", true, "+1% / 100% / 100%"},
		{"wan", false, "none / 100% / 100%"},
	}
	for _, c := range full {
		spec := o.statsmSpec(c.topo, Statsm, c.parallel, cosched.AfterUnblock)
		ov, res, err := Overhead(spec, o.repeats())
		if err != nil {
			return nil, err
		}
		_, _, label := o.topo(c.topo)
		rows = append(rows, Row{
			Table:             "table3",
			Config:            label + ", " + seqPar(c.parallel),
			Workload:          "gsum",
			Overhead:          ov,
			WrapperGatherRate: res.WrapperGatherRate,
			ThreadGatherRate:  res.ThreadGatherRate,
			TraceReadRate:     res.TraceReadRate,
			PerOp:             res.PerOp,
			Duration:          res.Duration,
			Paper:             c.paper,
		})
	}
	return rows, nil
}

// ScalabilityTrees reproduces the sections 6.2/6.3 scalability result:
// monitoring one, two or four spanning trees neither increases overhead
// nor reduces monitoring performance, because neither the allreduce call
// frequency nor the analysis communication frequency changes.
func ScalabilityTrees(o Options, kind MonitorKind) ([]Row, error) {
	var rows []Row
	for _, trees := range []int{1, 2, 4} {
		var spec RunSpec
		if kind == Statsm {
			spec = o.statsmSpec("tin32", kind, true, cosched.AfterUnblock)
		} else {
			spec = o.lbSpec("tin32", kind, true, Gsum)
		}
		spec.Trees = trees
		spec.MonitorTrees = trees // monitor every tree
		// Fewer calls per tree: shrink buffers to match, as the paper
		// does ("we reduced the size of all trace and intermediate
		// PastSet buffers to reflect the fewer allreduce calls per
		// spanning tree").
		spec.TraceBufCap = traceCap(spec.Iterations)
		ov, res, err := Overhead(spec, o.repeats())
		if err != nil {
			return nil, err
		}
		paper := "no increase"
		if kind == Statsm && trees > 1 {
			// Section 6.3.1: "Monitoring both 32 Tin host allreduce
			// spanning trees in gsum increased the analysis thread
			// overhead to 5%. We were not able to ... reduce it."
			paper = "5% (both trees)"
		}
		rows = append(rows, Row{
			Table:             "scalability",
			Config:            fmt.Sprintf("%s, %d tree(s)", kind, trees),
			Workload:          "gsum",
			Overhead:          ov,
			GatherRate:        res.GatherRate,
			WrapperGatherRate: res.WrapperGatherRate,
			ThreadGatherRate:  res.ThreadGatherRate,
			PerOp:             res.PerOp,
			Duration:          res.Duration,
			Paper:             paper,
		})
	}
	return rows, nil
}
