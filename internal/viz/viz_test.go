package viz

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"eventspace/internal/analysis"
	"eventspace/internal/cluster"
	"eventspace/internal/metrics"
	"eventspace/internal/monitor"
	"eventspace/internal/vclock"
)

// virtual runs the rest of the test on the discrete-event clock, where
// the trees' modelled delays cost no real time.
func virtual(t *testing.T) {
	t.Helper()
	vclock.Enable(0)
	t.Cleanup(func() {
		vclock.Quiesce(10 * time.Second)
		vclock.Disable()
	})
}

func testTree(t *testing.T) (*cluster.Testbed, *cluster.Tree) {
	t.Helper()
	virtual(t)
	tb, err := cluster.NewTestbed(cluster.SingleTin(4))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := cluster.BuildTree(tb, cluster.TreeSpec{
		Name: "T", Fanout: 8, ThreadsPerHost: 1, Instrument: true, TraceBufCap: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tree.Close)
	return tb, tree
}

func TestTreeRendering(t *testing.T) {
	_, tree := testTree(t)
	var buf bytes.Buffer
	if err := Tree(&buf, tree); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"spanning tree T", "T/tin-0", "fan-in 4", "EC"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree rendering missing %q:\n%s", want, out)
		}
	}
}

func TestTreeRenderingWAN(t *testing.T) {
	virtual(t)
	tb, err := cluster.NewTestbed(cluster.WANMulti(2, 2, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := cluster.BuildTree(tb, cluster.TreeSpec{Name: "W", ThreadsPerHost: 1, WANAllToAll: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	var buf bytes.Buffer
	if err := Tree(&buf, tree); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "all-to-all exchange: 6 participants") {
		t.Fatalf("WAN rendering missing exchange line:\n%s", buf.String())
	}
}

func TestWeightedTreeRendering(t *testing.T) {
	wt := monitor.NewWeightedTree()
	wt.Add("T/tin-0", 0, 90)
	wt.Add("T/tin-0", 1, 10)
	var buf bytes.Buffer
	if err := WeightedTree(&buf, wt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "T/tin-0 (100 rounds observed)") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "90.0%") || !strings.Contains(out, "10.0%") {
		t.Fatalf("missing percentages:\n%s", out)
	}
	// The straggler bar must be longer than the other.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if strings.Count(lines[1], "#") <= strings.Count(lines[2], "#") {
		t.Fatalf("bars not proportional:\n%s", out)
	}
}

func TestWeightedTreeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WeightedTree(&buf, monitor.NewWeightedTree()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no observations") {
		t.Fatal("missing empty message")
	}
}

func TestAnalysisTreeRendering(t *testing.T) {
	_, tree := testTree(t)
	at := monitor.NewAnalysisTree()
	id := tree.Nodes[0].CollectiveEC.ID()
	at.Update(analysis.StatsRecord{ID: id, Kind: analysis.KindDown, Count: 5, Mean: 100, Min: 90, Max: 110, Std: 5, Median: 99})
	at.Update(analysis.StatsRecord{ID: id, Kind: analysis.KindTotal, Count: 5, Mean: 300})
	var buf bytes.Buffer
	if err := AnalysisTree(&buf, at, tree); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "down") || !strings.Contains(out, "total") {
		t.Fatalf("missing metrics:\n%s", out)
	}
	if !strings.Contains(out, tree.Nodes[0].CollectiveEC.Name()) {
		t.Fatalf("missing wrapper name:\n%s", out)
	}
	// Unknown tree: falls back to numeric ids.
	buf.Reset()
	if err := AnalysisTree(&buf, at, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wrapper#") {
		t.Fatal("missing numeric fallback")
	}
}

func TestAnalysisTreeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := AnalysisTree(&buf, monitor.NewAnalysisTree(), nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no statistics") {
		t.Fatal("missing empty message")
	}
}

func TestGatherReport(t *testing.T) {
	var buf bytes.Buffer
	if err := GatherReport(&buf, "lb", 0.55); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "lb: gather rate  55.0% (tuples discarded)\n"; got != want {
		t.Fatalf("low rate rendered %q, want %q", got, want)
	}
	buf.Reset()
	GatherReport(&buf, "lb", 1.0)
	if got, want := buf.String(), "lb: gather rate 100.0% (all tuples gathered)\n"; got != want {
		t.Fatalf("full rate rendered %q, want %q", got, want)
	}
}

func TestTopologyRendering(t *testing.T) {
	tb, _ := testTree(t)
	var buf bytes.Buffer
	if err := Topology(&buf, tb); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "cluster tin") || !strings.Contains(out, "gateway=tin-gw") || !strings.Contains(out, "front-end") {
		t.Fatalf("topology rendering:\n%s", out)
	}
}

func TestBar(t *testing.T) {
	if bar(0, 10) != ".........."[:10] {
		t.Fatal("empty bar")
	}
	if bar(1, 10) != "##########" {
		t.Fatal("full bar")
	}
	if bar(-1, 4) != "...." || bar(2, 4) != "####" {
		t.Fatal("clamping")
	}
	if got := bar(0.5, 10); strings.Count(got, "#") != 5 {
		t.Fatalf("half bar = %q", got)
	}
}

func TestSelfMetricsRendering(t *testing.T) {
	var buf bytes.Buffer
	if err := SelfMetrics(&buf, metrics.New().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "self-metrics: no instrumented sites\n"; got != want {
		t.Fatalf("empty registry rendered %q, want %q", got, want)
	}

	// Registered counters that are all zero print no counters heading.
	var idle atomic.Uint64
	quiet := metrics.New()
	quiet.Op(metrics.KindStub, "stub-0").Record(100, 10, nil)
	quiet.Count("scope/stub.retries", &idle)
	quiet.Count("scope/stub.redials", &idle)
	buf.Reset()
	if err := SelfMetrics(&buf, quiet.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); strings.Contains(out, "counters:") || strings.Contains(out, "stub.retries") {
		t.Fatalf("all-zero counters rendered a counters section:\n%s", out)
	}

	reg := metrics.New()
	stub := reg.Op(metrics.KindStub, "stub-1")
	stub.Record(100, 10, nil)
	stub.Record(300, 10, nil)
	// Two collector sites count 40 000 writes between them and time 625.
	var a, b atomic.Uint64
	ecA := reg.Op(metrics.KindCollector, "ec-a")
	ecB := reg.Op(metrics.KindCollector, "ec-b")
	ecA.Keep(&a, 28)
	ecB.Keep(&b, 28)
	a.Add(30000)
	b.Add(10000)
	for i := 0; i < 625; i++ {
		ecA.Observe(120)
	}
	var retries atomic.Uint64
	retries.Add(3)
	reg.Count("scope/stub.retries", &retries)
	buf.Reset()
	if err := SelfMetrics(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	var totals [][]string
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 9 && (f[0] == "stub" || f[0] == "collector") {
			totals = append(totals, f)
		}
	}
	if len(totals) != 2 {
		t.Fatalf("want a totals row for stub and collector:\n%s", out)
	}
	if got, want := strings.Join(totals[0][:5], " "), "stub 1 2 0 20"; got != want {
		t.Fatalf("stub totals %q, want %q:\n%s", got, want, out)
	}
	if got, want := strings.Join(totals[1][:5], " "), "collector 2 40000 0 1120000"; got != want {
		t.Fatalf("collector totals %q, want %q:\n%s", got, want, out)
	}
	for _, want := range []string{
		"collector latency from 625 of 40000 ops",
		"collector sites:",
		"ec-a", "ec-b",
		"scope/stub.retries",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("self-metrics rendering missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "stub latency from") || strings.Contains(out, "stub sites:") {
		t.Fatalf("fully timed single-site stub rendered as sampled or with detail:\n%s", out)
	}
}
