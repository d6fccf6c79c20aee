// Statistics monitoring with coscheduling: runs gsum under statsm three
// times — analysis threads free-running, with coscheduling strategy 1,
// and with strategy 2 — and reports each configuration's monitoring
// overhead, reproducing the section 6.3.1 experiment that cut statsm's
// overhead from 9% to 1%.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"eventspace"
	"eventspace/internal/analysis"
	"eventspace/internal/viz"
)

func run(strategy eventspace.Strategy, label string) error {
	return eventspace.RunVirtual(func() error {
		const rounds = 2400

		// gsum alternates between two identical trees, one allreduce per
		// iteration, so each completes half the rounds; only the first is
		// monitored, as in the paper's experiments.
		buildTrees := func(sys *eventspace.System, instrument bool) ([]*eventspace.Tree, error) {
			var trees []*eventspace.Tree
			for _, name := range []string{"g1", "g2"} {
				tr, err := sys.BuildTree(eventspace.TreeSpec{
					Name: name, Fanout: 8, ThreadsPerHost: 1,
					Instrument: instrument, TraceBufCap: rounds / 5,
				})
				if err != nil {
					return nil, err
				}
				trees = append(trees, tr)
			}
			return trees, nil
		}

		// Base: the same trees without any monitor.
		base, err := eventspace.New(eventspace.SingleTin(16), strategy)
		if err != nil {
			return err
		}
		trees, err := buildTrees(base, false)
		if err != nil {
			return err
		}
		baseDur, err := base.RunWorkload(eventspace.Workload{Trees: trees, Iterations: rounds})
		if err != nil {
			return err
		}
		base.Close()

		// Monitored: identical trees with statsm attached to the first.
		sys, err := eventspace.New(eventspace.SingleTin(16), strategy)
		if err != nil {
			return err
		}
		defer sys.Close()
		trees, err = buildTrees(sys, true)
		if err != nil {
			return err
		}
		tree := trees[0]
		cfg := eventspace.DefaultMonitorConfig()
		cfg.Strategy = strategy
		cfg.PullInterval = 400 * time.Microsecond
		cfg.IntermediateCap = rounds / 5
		sm, err := sys.AttachStatsm(tree, cfg)
		if err != nil {
			return err
		}
		monDur, err := sys.RunWorkload(eventspace.Workload{Trees: trees, Iterations: rounds})
		if err != nil {
			return err
		}

		overhead := float64(monDur-baseDur) / float64(baseDur) * 100
		fmt.Printf("%-22s base=%-12v monitored=%-12v overhead=%5.1f%%  (rounds analyzed: %d, tcp samples: %d)\n",
			label, baseDur.Round(time.Microsecond), monDur.Round(time.Microsecond),
			overhead, sm.RoundsAnalyzed(), sm.TCPSamples())

		if strategy == eventspace.CoschedAfterUnblock {
			// Show what the front-end sees for the root wrapper.
			root := tree.Nodes[0]
			fmt.Println("\nfront-end analysis tree (root wrapper excerpt):")
			if rec, ok := sm.Tree().Get(root.CollectiveEC.ID(), analysis.KindTotal); ok {
				fmt.Printf("  total latency: mean=%.0fus min=%.0fus max=%.0fus std=%.0fus median=%.0fus\n",
					rec.Mean, rec.Min, rec.Max, rec.Std, rec.Median)
			}
			viz.GatherReport(os.Stdout, "  wrapper statistics", sm.WrapperGatherRate(), 0)
			viz.GatherReport(os.Stdout, "  per-thread statistics", sm.ThreadGatherRate(), 0)
		}
		return nil
	})
}

func main() {
	fmt.Println("statsm overhead under the three scheduling regimes (paper: 5-9% / 3% / 1%):")
	for _, c := range []struct {
		strategy eventspace.Strategy
		label    string
	}{
		{eventspace.CoschedNone, "free-running"},
		{eventspace.CoschedAfterSend, "coscheduling 1"},
		{eventspace.CoschedAfterUnblock, "coscheduling 2"},
	} {
		if err := run(c.strategy, c.label); err != nil {
			log.Fatal(err)
		}
	}
}
