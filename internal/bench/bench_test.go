package bench

import (
	"math"
	"runtime"
	"testing"
	"time"

	"eventspace/internal/cluster"
	"eventspace/internal/monitor"
)

// tinySpec is a fast-running gsum specification for unit tests. The
// virtual clock makes even full-fidelity runs quick.
func tinySpec() RunSpec {
	return RunSpec{
		Testbed:     cluster.SingleTin(6),
		Fanout:      8,
		Trees:       2,
		Workload:    Gsum,
		Iterations:  60,
		Monitor:     NoMonitor,
		MonitorCfg:  monitor.DefaultConfig(),
		TraceBufCap: 32,
	}
}

func TestRunValidation(t *testing.T) {
	spec := tinySpec()
	spec.Iterations = 0
	if _, err := Run(spec); err == nil {
		t.Fatal("0 iterations accepted")
	}
	spec = tinySpec()
	spec.Monitor = MonitorKind(99)
	if _, err := Run(spec); err == nil {
		t.Fatal("unknown monitor accepted")
	}
}

// TestRunTimeScale: a run models its delays at their configured value,
// so the only time scales Run accepts are 0 and 1, both meaning that.
func TestRunTimeScale(t *testing.T) {
	for _, tc := range []struct {
		scale float64
		ok    bool
	}{
		{0, true},
		{1, true},
		{0.5, false},
		{0.01, false},
		{2, false},
		{-1, false},
	} {
		spec := tinySpec()
		spec.Iterations = 8
		spec.TimeScale = tc.scale
		_, err := Run(spec)
		if ok := err == nil; ok != tc.ok {
			t.Errorf("TimeScale %v: err = %v, want accepted = %v", tc.scale, err, tc.ok)
		}
	}
}

func TestRunGsumBase(t *testing.T) {
	res, err := Run(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 60 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
	// 6 Tin hosts, one level: a few hundred microseconds per op.
	if res.PerOp < 100*time.Microsecond || res.PerOp > 2*time.Millisecond {
		t.Fatalf("PerOp = %v", res.PerOp)
	}
	if res.Duration < res.PerOp {
		t.Fatalf("duration %v < perOp %v", res.Duration, res.PerOp)
	}
	if res.Messages == 0 {
		t.Fatal("no messages counted")
	}
}

func TestRunRepeatableUnderVirtualClock(t *testing.T) {
	a, err := Run(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	// Virtual timing depends only on the model; ties between
	// simultaneous events may resolve in either order, so allow a
	// sliver of variation.
	diff := a.Duration - b.Duration
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.01*float64(a.Duration) {
		t.Fatalf("runs diverge: %v vs %v", a.Duration, b.Duration)
	}
}

// TestRunWithMonitors runs every monitor kind, with and without
// self-metrics, and holds what a Run owes its caller whatever it
// assembles: traffic counted, the kind's rates sampled (and no others),
// a self-metrics snapshot exactly when asked for, and every goroutine it
// started — the monitor threads the System adopted and the analysis-only
// ones Run stops itself — gone when it returns.
func TestRunWithMonitors(t *testing.T) {
	inUnit := func(rates ...float64) bool {
		for _, r := range rates {
			if r <= 0 || r > 1 {
				return false
			}
		}
		return true
	}
	for _, kind := range []MonitorKind{NoMonitor, CollectorsOnly, LBSingleScope, LBDistributed, Statsm, StatsmNoGather} {
		for _, self := range []bool{false, true} {
			spec := tinySpec()
			spec.Monitor = kind
			spec.SelfMetrics = self
			spec.MonitorCfg.PullInterval = 300 * time.Microsecond
			spec.MonitorCfg.AnalysisInterval = 300 * time.Microsecond
			before := runtime.NumGoroutine()
			res, err := Run(spec)
			if err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
			if res.Messages == 0 {
				t.Errorf("%v: no messages counted", kind)
			}
			if (res.Self != nil) != self {
				t.Errorf("%v: SelfMetrics=%v but Self=%v", kind, self, res.Self)
			}
			lb, sm := res.GatherRate, res.WrapperGatherRate+res.ThreadGatherRate
			switch kind {
			case LBSingleScope, LBDistributed:
				if !inUnit(res.GatherRate, res.TraceReadRate) || sm != 0 {
					t.Errorf("%v: rates %+v", kind, res)
				}
			case Statsm, StatsmNoGather:
				if !inUnit(res.WrapperGatherRate, res.ThreadGatherRate, res.TraceReadRate) || lb != 0 {
					t.Errorf("%v: rates %+v", kind, res)
				}
			default:
				if lb != 0 || sm != 0 {
					t.Errorf("%v: rates without a monitor: %+v", kind, res)
				}
			}
			deadline := time.Now().Add(time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%v: %d goroutines before the run, %d a second after it", kind, before, n)
			}
		}
	}
}

// TestSection5PinnedToParent holds the unmonitored per-allreduce latency of
// the quick preset's four topologies to the values the last commit whose
// bench.Run assembled its own system printed (esbench -markdown, PR 23's
// parent), within the run-to-run tolerance the simulator has.
func TestSection5PinnedToParent(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shape test")
	}
	rows, err := Section5Topology(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{530 * time.Microsecond, 546 * time.Microsecond, 1106 * time.Microsecond, 37708 * time.Microsecond}
	for i, r := range rows {
		if diff := (r.PerOp - want[i]).Abs(); float64(diff) > 0.01*float64(want[i]) {
			t.Errorf("%s: per op %v, parent printed %v", r.Config, r.PerOp, want[i])
		}
	}
}

func TestComputeGsumSlowerThanGsum(t *testing.T) {
	spec := tinySpec()
	spec.Trees = 1
	base, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Workload = ComputeGsum
	spec.ComputeDuration = time.Duration(base.PerOp)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Tuned 50/50: an iteration is roughly twice an allreduce.
	ratio := float64(res.PerOp) / float64(base.PerOp)
	if ratio < 1.5 || ratio > 3 {
		t.Fatalf("compute-gsum/gsum per-op ratio = %.2f", ratio)
	}
}

func TestTuneCompute(t *testing.T) {
	spec := tinySpec()
	spec.Workload = ComputeGsum
	d, err := TuneCompute(spec, 30)
	if err != nil {
		t.Fatal(err)
	}
	if d < 50*time.Microsecond || d > 5*time.Millisecond {
		t.Fatalf("tuned compute = %v", d)
	}
}

func TestOverheadBaseline(t *testing.T) {
	// Overhead of collectors-only on a tiny run must be near zero under
	// the virtual clock (collectors add no modelled cost).
	spec := tinySpec()
	spec.Monitor = CollectorsOnly
	ov, res, err := Overhead(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ov) > 0.02 {
		t.Fatalf("collectors-only overhead = %v", ov)
	}
	if res.Duration == 0 {
		t.Fatal("no duration")
	}
}

func TestWorkloadAndMonitorStrings(t *testing.T) {
	if Gsum.String() != "gsum" || ComputeGsum.String() != "compute-gsum" {
		t.Fatal("workload names")
	}
	names := map[MonitorKind]string{
		NoMonitor: "none", CollectorsOnly: "collectors", LBSingleScope: "lb-single",
		LBDistributed: "lb-distributed", Statsm: "statsm", StatsmNoGather: "statsm-nogather",
		MonitorKind(42): "monitor(42)",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", k, k.String())
		}
	}
}

func TestFormatting(t *testing.T) {
	if FormatOverhead(math.NaN()) != "-" {
		t.Fatal("NaN overhead")
	}
	if FormatOverhead(0.001) != "none" {
		t.Fatal("sub-noise overhead")
	}
	if FormatOverhead(0.031) != "3.1%" {
		t.Fatalf("got %s", FormatOverhead(0.031))
	}
	if FormatRate(0) != "-" || FormatRate(0.994) != "99%" {
		t.Fatal("rates")
	}
	r := Row{Config: "x", Overhead: 0.02, Discarded: true, GatherRate: 0.5, Paper: "2%"}
	if s := r.String(); s == "" {
		t.Fatal("empty row string")
	}
}

func TestOptionsDerivations(t *testing.T) {
	full := DefaultOptions()
	quick := QuickOptions()
	if full.tin32() != 32 || full.tin49() != 49 || full.lanTin() != 43 || full.lanIron() != 39 {
		t.Fatal("full sizes diverge from the paper")
	}
	ft, fi := full.wanSub()
	if ft != 14 || fi != 13 {
		t.Fatal("full WAN sub-cluster sizes")
	}
	if quick.tin32() >= full.tin32() || quick.lanIterations() >= full.lanIterations() {
		t.Fatal("quick not smaller than full")
	}
	if (Options{}).repeats() != 1 || (Options{Repeats: 3}).repeats() != 3 {
		t.Fatal("repeats")
	}
	if traceCap(1000) != 200 || traceCap(10) != 32 {
		t.Fatalf("traceCap = %d, %d", traceCap(1000), traceCap(10))
	}
}

func TestTopoNames(t *testing.T) {
	o := QuickOptions()
	for _, name := range []string{"tin32", "tin49", "lan", "wan", "wan-overloaded"} {
		tb, iters, label := o.topo(name)
		if len(tb.Clusters) == 0 || iters <= 0 || label == "" {
			t.Fatalf("topo %q incomplete", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown topology accepted")
		}
	}()
	o.topo("nope")
}
