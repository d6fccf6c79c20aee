// Command esrun executes a single monitored benchmark run and reports
// its measurements: modelled duration, per-allreduce latency, and the
// monitor's gather rates. It is the ad-hoc counterpart to esbench's
// fixed experiment suite.
//
// Usage:
//
//	esrun [-topology tin32|tin49|lan|lanfour|wan] [-hosts N]
//	      [-workload gsum|compute-gsum] [-iterations N]
//	      [-monitor none|collectors|lb-single|lb-distributed|statsm]
//	      [-parallel] [-cosched none|1|2] [-overhead] [-selfmetrics]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"eventspace/internal/bench"
	"eventspace/internal/cluster"
	"eventspace/internal/cosched"
	"eventspace/internal/monitor"
	"eventspace/internal/viz"
)

func main() {
	topology := flag.String("topology", "tin32", "testbed: tin32, tin49, lan, lanfour, wan")
	hosts := flag.Int("hosts", 0, "override per-cluster host count (0 = topology default)")
	workload := flag.String("workload", "gsum", "workload: gsum or compute-gsum")
	iterations := flag.Int("iterations", 500, "iterations per thread")
	monitorKind := flag.String("monitor", "lb-distributed", "monitor: none, collectors, lb-single, lb-distributed, statsm")
	parallel := flag.Bool("parallel", true, "gather with helper threads (parallel) instead of sequentially")
	coschedStrategy := flag.String("cosched", "2", "coscheduling strategy: none, 1 or 2")
	overhead := flag.Bool("overhead", false, "also run the unmonitored base and report relative overhead")
	selfMetrics := flag.Bool("selfmetrics", false, "account the monitoring stack's own per-wrapper costs and print the table")
	flag.Parse()

	spec, err := buildSpec(*topology, *hosts, *workload, *iterations, *monitorKind, *parallel, *coschedStrategy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "esrun: %v\n", err)
		os.Exit(2)
	}
	spec.SelfMetrics = *selfMetrics

	if spec.Workload == bench.ComputeGsum {
		d, err := bench.TuneCompute(spec, 60)
		if err != nil {
			fmt.Fprintf(os.Stderr, "esrun: tuning compute: %v\n", err)
			os.Exit(1)
		}
		spec.ComputeDuration = d
		fmt.Printf("compute-gsum tuned: %v computation per iteration (50/50 split)\n", d.Round(time.Microsecond))
	}

	if *overhead {
		ov, res, err := bench.Overhead(spec, 2)
		if err != nil {
			fmt.Fprintf(os.Stderr, "esrun: %v\n", err)
			os.Exit(1)
		}
		report(spec, res)
		fmt.Printf("monitoring overhead: %s\n", bench.FormatOverhead(ov))
		return
	}
	res, err := bench.Run(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "esrun: %v\n", err)
		os.Exit(1)
	}
	report(spec, res)
}

func buildSpec(topology string, hosts int, workload string, iterations int, monitorKind string, parallel bool, strategy string) (bench.RunSpec, error) {
	var tb cluster.TestbedSpec
	switch topology {
	case "tin32":
		tb = cluster.SingleTin(pick(hosts, 32))
	case "tin49":
		tb = cluster.SingleTin(pick(hosts, 49))
	case "lan":
		tb = cluster.LANMulti(pick(hosts, 43), pick(hosts, 39))
	case "lanfour":
		tb = cluster.LANMultiFour(pick(hosts, 49), pick(hosts, 18), pick(hosts, 10))
	case "wan":
		tb = cluster.WANMulti(pick(hosts, 14), pick(hosts, 13), 2005, 0)
	default:
		return bench.RunSpec{}, fmt.Errorf("unknown topology %q", topology)
	}

	spec := bench.RunSpec{
		Testbed:     tb,
		Fanout:      8,
		Trees:       2,
		Iterations:  iterations,
		TraceBufCap: iterations / 5,
	}
	switch workload {
	case "gsum":
		spec.Workload = bench.Gsum
	case "compute-gsum":
		spec.Workload = bench.ComputeGsum
		spec.Trees = 1
	default:
		return spec, fmt.Errorf("unknown workload %q", workload)
	}
	switch monitorKind {
	case "none":
		spec.Monitor = bench.NoMonitor
	case "collectors":
		spec.Monitor = bench.CollectorsOnly
	case "lb-single":
		spec.Monitor = bench.LBSingleScope
	case "lb-distributed":
		spec.Monitor = bench.LBDistributed
	case "statsm":
		spec.Monitor = bench.Statsm
	default:
		return spec, fmt.Errorf("unknown monitor %q", monitorKind)
	}

	cfg := monitor.DefaultConfig()
	cfg.IntermediateCap = iterations / 5
	cfg.PullInterval = 400 * time.Microsecond
	cfg.AnalysisInterval = 500 * time.Microsecond
	if !parallel {
		cfg.GatewayHelpers, cfg.RootHelpers = 0, 0
	}
	switch strategy {
	case "none":
		cfg.Strategy = cosched.None
	case "1":
		cfg.Strategy = cosched.AfterSend
	case "2":
		cfg.Strategy = cosched.AfterUnblock
	default:
		return spec, fmt.Errorf("unknown cosched strategy %q", strategy)
	}
	spec.MonitorCfg = cfg
	return spec, nil
}

func pick(override, def int) int {
	if override > 0 {
		return override
	}
	return def
}

func report(spec bench.RunSpec, res bench.RunResult) {
	fmt.Printf("workload %s on %d cluster(s), monitor %s\n",
		spec.Workload, len(spec.Testbed.Clusters), spec.Monitor)
	fmt.Printf("  modelled duration : %v\n", res.Duration.Round(time.Microsecond))
	fmt.Printf("  per allreduce     : %v\n", res.PerOp.Round(time.Microsecond))
	fmt.Printf("  network messages  : %d\n", res.Messages)
	if res.GatherRate > 0 {
		fmt.Printf("  gather rate       : %s\n", bench.FormatRate(res.GatherRate))
		fmt.Printf("  trace read rate   : %s\n", bench.FormatRate(res.TraceReadRate))
	}
	if res.WrapperGatherRate > 0 {
		fmt.Printf("  wrapper stats rate: %s\n", bench.FormatRate(res.WrapperGatherRate))
		fmt.Printf("  thread stats rate : %s\n", bench.FormatRate(res.ThreadGatherRate))
	}
	if res.Self != nil {
		viz.SelfMetrics(os.Stdout, *res.Self)
	}
}
