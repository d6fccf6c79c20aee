// Command esviz runs a short monitored workload with an injected
// straggler and renders the monitoring views as text: the testbed
// topology, the instrumented spanning tree (figure 1), the load-balance
// monitor's weighted tree (figure 3's visualization input), statsm's
// per-wrapper statistics table (figure 4's analysis tree), and the
// self-metrics table accounting the monitoring stack's own costs.
//
// Usage:
//
//	esviz [-hosts N] [-iterations N] [-straggler port] [-delay d]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"eventspace/internal/cluster"
	"eventspace/internal/core"
	"eventspace/internal/cosched"
	"eventspace/internal/metrics"
	"eventspace/internal/monitor"
	"eventspace/internal/viz"
)

func main() {
	hosts := flag.Int("hosts", 8, "Tin hosts in the cluster")
	iterations := flag.Int("iterations", 400, "workload iterations")
	straggler := flag.Int("straggler", 0, "thread index made artificially slow (-1 disables)")
	delay := flag.Duration("delay", 2*time.Millisecond, "straggler's extra per-iteration delay")
	flag.Parse()

	err := core.RunVirtual(func() error {
		sys, err := core.New(cluster.SingleTin(*hosts), cosched.AfterUnblock)
		if err != nil {
			return err
		}
		defer sys.Close()
		reg := metrics.New()
		sys.UseMetrics(reg)

		tree, err := sys.BuildTree(cluster.TreeSpec{
			Name: "T1", Fanout: 8, ThreadsPerHost: 1,
			Instrument: true, TraceBufCap: *iterations / 4,
		})
		if err != nil {
			return err
		}

		cfg := monitor.DefaultConfig()
		cfg.PullInterval = 400 * time.Microsecond
		cfg.AnalysisInterval = 400 * time.Microsecond
		cfg.IntermediateCap = *iterations / 4
		lb, err := sys.AttachLoadBalance(tree, monitor.Distributed, cfg)
		if err != nil {
			return err
		}
		sm, err := sys.AttachStatsm(tree, cfg)
		if err != nil {
			return err
		}

		wl := core.Workload{Trees: []*cluster.Tree{tree}, Iterations: *iterations}
		if *straggler >= 0 {
			idx, d := *straggler, *delay
			wl.Delay = func(thread, iter int) time.Duration {
				if thread == idx {
					return d
				}
				return 0
			}
		}
		duration, err := sys.RunWorkload(wl)
		if err != nil {
			return err
		}

		fmt.Println("== topology ==")
		viz.Topology(os.Stdout, sys.Testbed())
		fmt.Println("\n== spanning tree (figure 1) ==")
		viz.Tree(os.Stdout, tree)
		fmt.Printf("\n== load-balance weighted tree (%v of modelled run) ==\n", duration.Round(time.Millisecond))
		viz.WeightedTree(os.Stdout, lb.Weighted())
		fmt.Println("\n== statsm analysis tree ==")
		viz.AnalysisTree(os.Stdout, sm.Tree(), tree)
		fmt.Println("\n== gather accounting ==")
		viz.GatherReport(os.Stdout, "load-balance scope", lb.GatherRate())
		viz.GatherReport(os.Stdout, "statsm wrapper scope", sm.WrapperGatherRate())
		viz.GatherReport(os.Stdout, "statsm thread scope", sm.ThreadGatherRate())
		fmt.Println("\n== self-metrics ==")
		viz.SelfMetrics(os.Stdout, reg.Snapshot())
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "esviz: %v\n", err)
		os.Exit(1)
	}
}
