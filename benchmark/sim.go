package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// simRows are the 21 rows of the paper's Tables 1-3 at the quick preset's
// sizes (see simRow in sut.go for why they are a literal table).
var simRows = []simRow{
	// Table 1: load-balance monitor, single event scope, compute-gsum.
	{Name: "t1/tin16/seq", Topo: "tin16", Monitor: "lb-single", Compute: true},
	{Name: "t1/tin16/par", Topo: "tin16", Monitor: "lb-single", Compute: true, Parallel: true},
	{Name: "t1/lan/seq", Topo: "lan", Monitor: "lb-single", Compute: true},
	{Name: "t1/lan/par", Topo: "lan", Monitor: "lb-single", Compute: true, Parallel: true},
	{Name: "t1/wan-overloaded/seq", Topo: "wan-overloaded", Monitor: "lb-single", Compute: true},
	// Table 2: load-balance monitor, distributed analysis.
	{Name: "t2/tin20/seq/gsum", Topo: "tin20", Monitor: "lb-distributed"},
	{Name: "t2/tin20/par/gsum", Topo: "tin20", Monitor: "lb-distributed", Parallel: true},
	{Name: "t2/tin20/seq", Topo: "tin20", Monitor: "lb-distributed", Compute: true},
	{Name: "t2/tin20/par", Topo: "tin20", Monitor: "lb-distributed", Compute: true, Parallel: true},
	{Name: "t2/lan/seq", Topo: "lan", Monitor: "lb-distributed", Compute: true},
	{Name: "t2/lan/par", Topo: "lan", Monitor: "lb-distributed", Compute: true, Parallel: true},
	{Name: "t2/wan/seq", Topo: "wan", Monitor: "lb-distributed", Compute: true},
	{Name: "t2/wan/par", Topo: "wan", Monitor: "lb-distributed", Compute: true, Parallel: true},
	// Table 3: statistics monitor, gsum. Analysis threads alone under the
	// three scheduling regimes, then the full monitor with strategy 2.
	{Name: "t3/analysis/none", Topo: "tin16", Monitor: "statsm-nogather", Cosched: "none"},
	{Name: "t3/analysis/cosched1", Topo: "tin16", Monitor: "statsm-nogather", Cosched: "after-send"},
	{Name: "t3/analysis/cosched2", Topo: "tin16", Monitor: "statsm-nogather", Cosched: "after-unblock"},
	{Name: "t3/tin16/seq", Topo: "tin16", Monitor: "statsm", Cosched: "after-unblock"},
	{Name: "t3/tin16/par", Topo: "tin16", Monitor: "statsm", Cosched: "after-unblock", Parallel: true},
	{Name: "t3/lan/seq", Topo: "lan", Monitor: "statsm", Cosched: "after-unblock"},
	{Name: "t3/lan/par", Topo: "lan", Monitor: "statsm", Cosched: "after-unblock", Parallel: true},
	{Name: "t3/wan/seq", Topo: "wan", Monitor: "statsm", Cosched: "after-unblock"},
}

// stackRows are the two runs of the whole product stack on 16 Tins.
var stackRows = []struct {
	Name    string
	Compute bool
}{{"stack/gsum", false}, {"stack/compute-gsum", true}}

// rowSamples accumulates one row's runs across passes.
type rowSamples struct {
	base, mon sample // modelled seconds
	rate      sample // gather rate of the monitored runs
}

// overheadPct is (median monitored - median base) / median base, in
// modelled time.
func (r *rowSamples) overheadPct() float64 {
	return 100 * (r.mon.median() - r.base.median()) / r.base.median()
}

// simKind tallies host time and network messages of one kind of run.
type simKind struct{ hostS, msgs float64 }

// simSeries are the per-pass series of the sim phase, with their units.
var simSeries = map[string]string{
	"sim_wall_s": "s", "bench.base_host_s": "s", "bench.monitored_host_s": "s", "bench.stack_host_s": "s",
	"vnet.msgs_base": "count", "vnet.msgs_monitored": "count", "vnet.msgs_stack": "count",
	"vnet.monitor_msgs_per_round": "count", "paths.allreduce_modelled_us": "us",
}

// simPhase runs the simulator: each table row unmonitored and monitored
// in turn, then each stack row against the same tree uninstrumented. It is
// the only phase in which the virtual clock, the modelled network, the
// allreduce wrappers, coscheduling and the live monitors run, and the only
// one that yields the paper's headline numbers.
func (f *fixture) simPhase(_ *reference, tr *tracer, rep *report) (*phase, error) {
	ph := &phase{name: "sim", share: shareSim, floor: f.cfg.Sizes.MinSimPasses}
	sz := f.cfg.Sizes
	rows := make([]rowSamples, len(simRows))
	stacks := make([]rowSamples, len(stackRows))
	series := make(map[string]sample)
	add := func(name string, v float64) { series[name] = append(series[name], v) }
	stackIters := max(sz.StackIterations/sz.SimDivisor, 8)

	// timed runs one simulation, checks its invariants, and books its
	// host time and messages under kind.
	timed := func(name string, kind *simKind, fn func() (simResult, error)) simResult {
		id := tr.begin(name)
		t0 := time.Now()
		res, err := fn()
		kind.hostS += time.Since(t0).Seconds()
		tr.end(id)
		rep.attempt(1)
		if err != nil {
			rep.fail(1, "%s: %v", name, err)
			return res
		}
		kind.msgs += float64(res.Messages)
		if res.Modelled <= 0 || res.Messages == 0 || res.GatherRate < 0 || res.GatherRate > 1 {
			rep.fail(1, "%s breaks an invariant: %+v", name, res)
		}
		return res
	}

	ph.pass = func(pass int) error {
		useModelClock()
		defer useRealClock()
		if tr != nil {
			tr.pass = pass
		}
		var base, mon, stack simKind
		passStart := time.Now()
		for i, row := range simRows {
			compute := f.tuned[row.Topo]
			b := timed("sim.base:"+row.Name, &base, func() (simResult, error) {
				return runSimRow(row, false, compute, sz.SimDivisor)
			})
			m := timed("sim.monitored:"+row.Name, &mon, func() (simResult, error) {
				return runSimRow(row, true, compute, sz.SimDivisor)
			})
			rows[i].base = append(rows[i].base, b.Modelled.Seconds())
			rows[i].mon = append(rows[i].mon, m.Modelled.Seconds())
			if !math.IsNaN(m.GatherRate) {
				rows[i].rate = append(rows[i].rate, m.GatherRate)
			}
		}
		var extraMsgs float64
		for i, row := range stackRows {
			var compute time.Duration
			if row.Compute {
				compute = f.tuned["tin16"]
			}
			dir := filepath.Join(f.dir, fmt.Sprintf("stack-%d-%d", pass, i))
			b := timed("sim.base:"+row.Name, &base, func() (simResult, error) {
				return runStackRow(compute, stackIters, false, false, nil, "")
			})
			s := timed("sim.stack:"+row.Name, &stack, func() (simResult, error) {
				return runStackRow(compute, stackIters, true, f.cfg.Workload.Full, f.cfg.Workload.Alerts, dir)
			})
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			if !row.Compute {
				add("paths.allreduce_modelled_us", float64(b.PerOp.Nanoseconds())/1e3)
			}
			stacks[i].base = append(stacks[i].base, b.Modelled.Seconds())
			stacks[i].mon = append(stacks[i].mon, s.Modelled.Seconds())
			stacks[i].rate = append(stacks[i].rate, s.GatherRate)
			extraMsgs += (float64(s.Messages) - float64(b.Messages)) / float64(stackIters)
		}
		add("sim_wall_s", time.Since(passStart).Seconds())
		add("bench.base_host_s", base.hostS)
		add("bench.monitored_host_s", mon.hostS)
		add("bench.stack_host_s", stack.hostS)
		add("vnet.msgs_base", base.msgs)
		add("vnet.msgs_monitored", mon.msgs)
		add("vnet.msgs_stack", stack.msgs)
		add("vnet.monitor_msgs_per_round", extraMsgs/float64(len(stackRows)))
		return nil
	}

	ph.finish = func() error {
		var overhead, stackOverhead, rates sample
		for i := range rows {
			overhead = append(overhead, rows[i].overheadPct())
			if len(rows[i].rate) > 0 {
				rates = append(rates, rows[i].rate.median())
			}
		}
		for i := range stacks {
			stackOverhead = append(stackOverhead, stacks[i].overheadPct())
			rates = append(rates, stacks[i].rate.median())
		}
		for name, unit := range simSeries {
			rep.set(name, unit, series[name])
		}
		rep.setValue("sim_overhead_pct", "%", overhead.mean())
		rep.setValue("sim_stack_overhead_pct", "%", stackOverhead.mean())
		rep.setValue("sim_gather_rate", "fraction", rates.mean())
		rep.setValue("vnet.msgs_per_host_s", "1/s",
			(series["vnet.msgs_base"].median()+series["vnet.msgs_monitored"].median()+series["vnet.msgs_stack"].median())/
				series["sim_wall_s"].median())
		for i, row := range simRows {
			rep.note("%-24s overhead %+7.3f%%", row.Name, overhead[i])
		}
		for i, row := range stackRows {
			rep.note("%-24s overhead %+7.3f%%", row.Name, stackOverhead[i])
		}
		return nil
	}
	return ph, nil
}

// probePhase times single layers in isolation (traced run only).
func (f *fixture) probePhase(rep *report) error {
	useRealClock()
	ps, err := probes()
	if err != nil {
		return err
	}
	defer closeProbes(ps)
	for _, p := range ps {
		var s sample
		for i := 0; i <= p.Reps; i++ {
			if p.prep != nil {
				if err := p.prep(); err != nil {
					return fmt.Errorf("%s: %w", p.Metric, err)
				}
			}
			t0 := time.Now()
			err := p.run()
			ns := float64(time.Since(t0).Nanoseconds()) / float64(p.Per)
			if err != nil {
				return fmt.Errorf("%s: %w", p.Metric, err)
			}
			if i == 0 {
				continue // warm-up
			}
			if p.Unit == "us" {
				ns /= 1e3
			}
			s = append(s, ns)
		}
		rep.set(p.Metric, p.Unit, s)
	}
	return nil
}
