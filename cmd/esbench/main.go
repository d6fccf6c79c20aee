// Command esbench reproduces the paper's evaluation: the per-topology
// allreduce latencies of section 5, the data-collection overhead of
// section 6.1, Tables 1-3, and the spanning-tree scalability series of
// sections 6.2-6.3. Each row prints the measured overhead and gather
// rates next to the paper's reported figures.
//
// Usage:
//
//	esbench [-full] [-experiment all|sec5|sec61|table1|table2|table3|scalability]
//	        [-repeats N] [-markdown] [-selfmetrics]
//
// -selfmetrics additionally runs a short instrumented demo and prints
// the self-metrics table: the per-wrapper cost of the monitoring stack
// itself ("monitoring the monitor").
//
// The default quick mode scales host counts and iterations down so the
// whole suite completes in minutes; -full uses the paper's host counts.
// Everything executes under the discrete-event virtual clock, so results
// depend on the model and not on the machine. One tie-break seed gives
// one interleaving, so a run repeats byte for byte; how far the rows
// move over other seeds is ROADMAP item 26. The wall time and the
// clock's counters (goroutine switches, split by park site; path steps
// run in hand-offs; fast-path sleeps) go to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"eventspace/internal/bench"
	"eventspace/internal/cluster"
	"eventspace/internal/monitor"
	"eventspace/internal/vclock"
	"eventspace/internal/viz"
)

func main() {
	full := flag.Bool("full", false, "use the paper's full host counts and iteration budgets")
	experiment := flag.String("experiment", "all", "which experiment to run: all, sec5, sec61, table1, table2, table3, scalability")
	repeats := flag.Int("repeats", 0, "repetitions per measurement (0 = preset default)")
	markdown := flag.Bool("markdown", false, "emit rows as a markdown table (for EXPERIMENTS.md)")
	selfMetrics := flag.Bool("selfmetrics", false, "also run a short demo with self-metrics and print the cost table")
	flag.Parse()

	opts := bench.QuickOptions()
	if *full {
		opts = bench.DefaultOptions()
	}
	if *repeats > 0 {
		opts.Repeats = *repeats
	}

	type experimentFn struct {
		name  string
		title string
		run   func(bench.Options) ([]bench.Row, error)
	}
	suite := []experimentFn{
		{"sec5", "Section 5 — average time per allreduce", bench.Section5Topology},
		{"sec61", "Section 6.1 — data collection overhead", bench.Section61Collection},
		{"table1", "Table 1 — load balance monitor, single event scope", bench.Table1},
		{"table2", "Table 2 — load balance monitor, distributed analysis", bench.Table2},
		{"table3", "Table 3 — statistics monitor overhead and gather rates", bench.Table3},
		{"scalability", "Sections 6.2/6.3 — monitoring 1, 2 and 4 spanning trees", func(o bench.Options) ([]bench.Row, error) {
			rows, err := bench.ScalabilityTrees(o, bench.LBDistributed)
			if err != nil {
				return nil, err
			}
			more, err := bench.ScalabilityTrees(o, bench.Statsm)
			if err != nil {
				return nil, err
			}
			return append(rows, more...), nil
		}},
	}

	ran := false
	start := time.Now()
	for _, e := range suite {
		if *experiment != "all" && *experiment != e.name {
			continue
		}
		ran = true
		fmt.Printf("== %s ==\n", e.title)
		rows, err := e.run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "esbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		if *markdown {
			printMarkdown(rows)
		} else {
			for _, r := range rows {
				if r.Table == "sec5" {
					fmt.Printf("  %-30s per allreduce %-12v [paper: %s]\n", r.Config, r.PerOp.Round(time.Microsecond), r.Paper)
					continue
				}
				fmt.Printf("  %s\n", r)
			}
		}
		fmt.Println()
	}
	if !ran && !*selfMetrics {
		fmt.Fprintf(os.Stderr, "esbench: unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
	if *selfMetrics {
		fmt.Println("== self-metrics — cost of monitoring the monitor ==")
		if err := runSelfMetrics(); err != nil {
			fmt.Fprintf(os.Stderr, "esbench: selfmetrics: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
	}
	// The wall time and the clock's work counters go to stderr: stdout
	// holds only modelled results, which one seed reproduces byte for
	// byte.
	n := vclock.Counters()
	fmt.Fprintf(os.Stderr, "completed in %v (mode: %s, repeats: %d); clock: %d goroutine switches, %d path steps in hand-offs, %d fast-path sleeps\n",
		time.Since(start).Round(time.Millisecond), mode(*full), opts.Repeats, n.Switches, n.PathSteps, n.FastSleeps)
	var by strings.Builder
	for i, s := range n.SwitchesBy {
		fmt.Fprintf(&by, " %s %d", vclock.ParkSites[i], s)
	}
	fmt.Fprintf(os.Stderr, "switches by park site:%s\n", by.String())
}

func mode(full bool) string {
	if full {
		return "full"
	}
	return "quick"
}

// runSelfMetrics executes a small instrumented run with the self-metrics
// registry attached and prints the resulting cost table.
func runSelfMetrics() error {
	cfg := monitor.DefaultConfig()
	cfg.PullInterval = 400 * time.Microsecond
	cfg.AnalysisInterval = 500 * time.Microsecond
	cfg.IntermediateCap = 100
	res, err := bench.Run(bench.RunSpec{
		Testbed:     cluster.SingleTin(8),
		Fanout:      8,
		Trees:       2,
		Workload:    bench.Gsum,
		Iterations:  300,
		Monitor:     bench.LBDistributed,
		MonitorCfg:  cfg,
		TraceBufCap: 100,
		SelfMetrics: true,
	})
	if err != nil {
		return err
	}
	if res.Self == nil {
		return fmt.Errorf("run returned no self-metrics snapshot")
	}
	return viz.SelfMetrics(os.Stdout, *res.Self)
}

func printMarkdown(rows []bench.Row) {
	fmt.Println("| Configuration | Measured overhead | Measured rates | Paper |")
	fmt.Println("|---|---|---|---|")
	for _, r := range rows {
		var rates []string
		if r.Table == "sec5" {
			rates = append(rates, fmt.Sprintf("per op %v", r.PerOp.Round(time.Microsecond)))
		}
		if r.GatherRate > 0 {
			rates = append(rates, "gather "+bench.FormatRate(r.GatherRate))
		}
		if r.WrapperGatherRate > 0 {
			rates = append(rates, "wrapper "+bench.FormatRate(r.WrapperGatherRate),
				"thread "+bench.FormatRate(r.ThreadGatherRate))
		}
		overhead := bench.FormatOverhead(r.Overhead)
		if r.Discarded {
			overhead += " (tuples discarded)"
		}
		fmt.Printf("| %s | %s | %s | %s |\n", r.Config, overhead, strings.Join(rates, ", "), r.Paper)
	}
}
