package eventspace

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices DESIGN.md calls out. The
// experiment benches execute under the discrete-event virtual clock, so
// ns/op measures harness execution, while the reproduced quantities —
// overheads, per-op latencies, gather rates — are reported as custom
// metrics (paper_* values are the paper's figures where they are scalar).
//
// Run with: go test -bench=. -benchmem

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"eventspace/internal/bench"
	"eventspace/internal/cluster"
	"eventspace/internal/cosched"
	"eventspace/internal/monitor"
)

// reportRows logs every row and aggregates worst-case metrics.
func reportRows(b *testing.B, rows []bench.Row) {
	b.Helper()
	var maxOverhead, minGather float64
	minGather = 1
	for _, r := range rows {
		b.Log(r.String())
		if r.Overhead == r.Overhead && r.Overhead > maxOverhead { // NaN-safe
			maxOverhead = r.Overhead
		}
		for _, g := range []float64{r.GatherRate, r.WrapperGatherRate} {
			if g > 0 && g < minGather {
				minGather = g
			}
		}
	}
	b.ReportMetric(maxOverhead*100, "max_overhead_%")
	b.ReportMetric(minGather*100, "min_gather_%")
}

// BenchmarkSec5TopologyLatency reproduces section 5's average time per
// allreduce for each topology (paper: ~0.5 ms, ~0.6 ms, ~1 ms, ~65 ms).
func BenchmarkSec5TopologyLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Section5Topology(bench.QuickOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.Logf("%-24s per op %v  [paper %s]", r.Config, r.PerOp.Round(time.Microsecond), r.Paper)
			if i == 0 {
				unit := "us/" + strings.ReplaceAll(r.Config, " ", "_")
				b.ReportMetric(float64(r.PerOp.Microseconds()), unit)
			}
		}
	}
}

// BenchmarkSec61CollectionOverhead reproduces section 6.1: event
// collectors add 0-2% to gsum and compute-gsum.
func BenchmarkSec61CollectionOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Section61Collection(bench.QuickOptions())
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, rows)
	}
}

// BenchmarkTable1 reproduces the load-balance monitor with a single event
// scope (sequential gathering discards tuples; parallel costs <= 0.4%).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table1(bench.QuickOptions())
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, rows)
	}
}

// BenchmarkTable2 reproduces the load-balance monitor with distributed
// analysis (0-3% overhead; 45-100% gather rates).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table2(bench.QuickOptions())
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, rows)
	}
}

// BenchmarkTable3 reproduces the statistics monitor: the 5-9% -> 3% -> 1%
// coscheduling ladder and the wrapper/thread gather rates.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table3(bench.QuickOptions())
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, rows)
	}
}

// BenchmarkScalabilityTrees reproduces sections 6.2/6.3: monitoring one,
// two or four spanning trees does not increase overhead.
func BenchmarkScalabilityTrees(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.ScalabilityTrees(bench.QuickOptions(), bench.LBDistributed)
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, rows)
	}
}

// BenchmarkAblationGatherHelpers sweeps the helper-thread count of the
// monitor's gather wrappers — the paper's central tuning knob — showing
// the sequential-to-parallel gather-rate crossover.
func BenchmarkAblationGatherHelpers(b *testing.B) {
	for _, helpers := range []int{0, 1, 2, 4, 8} {
		b.Run(fmt.Sprintf("helpers=%d", helpers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := bench.RunSpec{
					Testbed:     cluster.SingleTin(16),
					Fanout:      8,
					Trees:       2,
					Workload:    bench.Gsum,
					Iterations:  400,
					Monitor:     bench.LBDistributed,
					TraceBufCap: 80,
				}
				cfg := monitor.DefaultConfig()
				cfg.GatewayHelpers, cfg.RootHelpers = helpers, helpers
				cfg.PullInterval = 400 * time.Microsecond
				cfg.AnalysisInterval = 500 * time.Microsecond
				cfg.IntermediateCap = 80
				spec.MonitorCfg = cfg
				res, err := bench.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.GatherRate*100, "gather_%")
			}
		})
	}
}

// BenchmarkAblationCosched sweeps the coscheduling strategy under the
// statistics monitor's analysis threads (the section 6.3.1 experiment).
func BenchmarkAblationCosched(b *testing.B) {
	for _, s := range []cosched.Strategy{cosched.None, cosched.AfterSend, cosched.AfterUnblock} {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := bench.RunSpec{
					Testbed:     cluster.SingleTin(16),
					Fanout:      8,
					Trees:       2,
					Workload:    bench.Gsum,
					Iterations:  400,
					Monitor:     bench.StatsmNoGather,
					TraceBufCap: 80,
				}
				cfg := monitor.DefaultConfig()
				cfg.Strategy = s
				cfg.IntermediateCap = 80
				spec.MonitorCfg = cfg
				ov, _, err := bench.Overhead(spec, 1)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(ov*100, "overhead_%")
			}
		})
	}
}

// BenchmarkAblationTreeFanout sweeps the host-level fanout of the
// monitored allreduce tree (flat vs 4-way vs 8-way), the reconfiguration
// axis of the paper's earlier tuning work.
func BenchmarkAblationTreeFanout(b *testing.B) {
	for _, fanout := range []int{0, 2, 4, 8} {
		name := fmt.Sprintf("fanout=%d", fanout)
		if fanout == 0 {
			name = "flat"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := bench.RunSpec{
					Testbed:    cluster.SingleTin(16),
					Fanout:     fanout,
					Trees:      1,
					Workload:   bench.Gsum,
					Iterations: 300,
					Monitor:    bench.NoMonitor,
				}
				res, err := bench.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.PerOp.Microseconds()), "us/op_modelled")
			}
		})
	}
}
