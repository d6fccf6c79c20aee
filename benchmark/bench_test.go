package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"unsafe"
)

// testTopology is a small tree that has every shape the generator models:
// a root with a local thread, a bare child thread, and a child subtree.
func testTopology() Topology {
	sub := &TopoNode{Collective: 5, Threads: []int{6}, Children: []TopoChild{{Contributor: 7, Client: 8, Server: 9}}}
	root := &TopoNode{Collective: 0, Threads: []int{1}, Children: []TopoChild{
		{Contributor: 2, Client: 3, Server: 4},
		{Contributor: 10, Client: 11, Server: 12, Node: sub},
	}}
	ids := make([]uint32, 13)
	for i := range ids {
		ids[i] = uint32(i + 1)
	}
	return Topology{IDs: ids, Root: root, Nodes: 2}
}

func TestGeneratorIsDeterministic(t *testing.T) {
	topo := testTopology()
	a := generate(topo, 2005, 200, 1)
	b := generate(topo, 2005, 200, 1)
	if !bytes.Equal(a.data, b.data) {
		t.Fatal("the same seed gave different bytes")
	}
	if c := generate(topo, 2006, 200, 1); bytes.Equal(a.data, c.data) {
		t.Fatal("another seed gave the same bytes")
	}
	if got, want := len(a.tuples), 200*len(topo.IDs); got != want || len(a.data) != want*tupleSize || len(a.src) != want {
		t.Fatalf("stream holds %d tuples, %d bytes, %d sources; want %d tuples", got, len(a.data), len(a.src), want)
	}
	errs := 0
	for i, tu := range a.tuples {
		if tu.End <= tu.Start || tu.Start <= 0 {
			t.Fatalf("tuple %d has stamps %d..%d", i, tu.Start, tu.End)
		}
		if tu.ECID != topo.IDs[a.src[i]] || tu.Seq != uint32(i/len(topo.IDs)) {
			t.Fatalf("tuple %d: ecid %d seq %d from source %d", i, tu.ECID, tu.Seq, a.src[i])
		}
		var enc [tupleSize]byte
		tu.encodeTo(enc[:])
		if !bytes.Equal(enc[:], a.data[i*tupleSize:(i+1)*tupleSize]) {
			t.Fatalf("tuple %d: decoded and encoded forms differ", i)
		}
		if tu.Ret < 0 {
			errs++
		}
	}
	if errs == 0 || errs > len(a.tuples)/100 {
		t.Fatalf("%d of %d tuples record a failed operation, want about one in a thousand", errs, len(a.tuples))
	}
	// A round lasts about 500 µs.
	if per := float64(a.endNS) / 200; per < 300_000 || per > 800_000 {
		t.Fatalf("a round lasts %.0f ns", per)
	}
}

func TestTupleSetIgnoresOrder(t *testing.T) {
	st := generate(testTopology(), 1, 10, 1)
	var fwd, rev tupleSet
	for i := range st.tuples {
		fwd.add(st.tuples[i])
		rev.add(st.tuples[len(st.tuples)-1-i])
	}
	if fwd != rev {
		t.Fatal("the fingerprint depends on order")
	}
	var short tupleSet
	for _, tu := range st.tuples[1:] {
		short.add(tu)
	}
	if short == fwd {
		t.Fatal("the fingerprint misses a lost tuple")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(values, n=4) for each input.
	for _, c := range []struct {
		in   sample
		want [3]float64
	}{
		{sample{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{sample{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{sample{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{sample{10, 20, 30}, [3]float64{10, 20, 30}},
		{sample{7}, [3]float64{7, 7, 7}},
	} {
		q1, med, q3 := c.in.quartiles()
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	q1, med, q3 := (sample{90, 100, 110, 100}).quartiles()
	if s := (summary{q1: q1, med: med, q3: q3}).spread(); math.Abs(s-0.15) > 1e-12 {
		t.Errorf("spread = %v, want 0.15", s)
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{99, 0, false}, {100, 0.9, true}, {999, 0.9, true}, {1000, 0.99, true},
		{9999, 0.99, true}, {10000, 0.999, true}, {5, 0, false},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.ok)
		}
	}
	var s sample
	for i := 1; i <= 100; i++ {
		s = append(s, float64(i))
	}
	if v, p := s.tail(); v != 90 || p != 0.9 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p0.9 (ten samples beyond)", v, p*100)
	}
	if v, p := (sample{3, 1, 2}).tail(); v != 3 || p != 1 {
		t.Errorf("tail of a small sample = %v at %v, want its maximum", v, p)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	tr := newTracer()
	// checkpoint.append [0,100] ⊃ query.append [10,70] ⊃ archive.append
	// [20,50] and a second archive.append [55,65] (an alert tuple).
	tr.spans = []span{
		{Name: "checkpoint.append", Start: 0, End: 100, Parent: -1},
		{Name: "query.append", Start: 10, End: 70, Parent: 0},
		{Name: "archive.append", Start: 20, End: 50, Parent: 1},
		{Name: "archive.append", Start: 55, End: 65, Parent: 1},
		{Name: "escope.pull", Start: 100, End: 130, Parent: -1},
	}
	self := selfTimes(tr.spans)
	want := map[string]int64{"checkpoint.append": 40, "query.append": 20, "archive.append": 40, "escope.pull": 30}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, self[name], w)
		}
	}
	var sum int64
	for _, v := range self {
		sum += v
	}
	if sum != 130 {
		t.Errorf("self times sum to %d, want the 130 the top-level spans cover", sum)
	}
	// A later phase looks only at its own spans.
	tail := rebase(tr.spans, 4)
	if len(tail) != 1 || tail[0].Parent != -5 || selfTimes(tail)["escope.pull"] != 30 {
		t.Errorf("rebase: %+v", tail)
	}

	// begin/end nest through the open stack.
	live := newTracer()
	a := live.begin("outer")
	b := live.begin("inner")
	live.end(b)
	live.end(a)
	if live.spans[1].Parent != 0 || live.spans[0].Parent != -1 || len(live.open) != 0 {
		t.Errorf("nesting: %+v", live.spans)
	}
	var none *tracer
	none.end(none.begin("ignored")) // a nil tracer records nothing
}

// TestStackSweep checks what atDepth is for: eight consecutive depths put
// the callee's frame at eight different offsets within a 64-byte line.
func TestStackSweep(t *testing.T) {
	seen := make(map[uintptr]bool)
	for k := 0; k < 8; k++ {
		if err := atDepth(k, func() error {
			seen[stackOffset()] = true
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 8 {
		t.Fatalf("eight depths reach %d offsets within a cache line (%v); atDepth's frame must be an odd number of words", len(seen), seen)
	}
}

//go:noinline
func stackOffset() uintptr {
	var x [8]byte
	return uintptr(unsafe.Pointer(&x[0])) % 64
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "latency_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "rate", Better: "higher", Bound: 0.10}
	base := summary{q1: 99, med: 100, q3: 101}
	for _, c := range []struct {
		m    metricSpec
		b    summary
		want string
	}{
		{lower, summary{104, 105, 106}, "same"},
		{lower, summary{114, 115, 116}, "worse"},
		{lower, summary{84, 85, 86}, "same"}, // better is not worse
		{higher, summary{84, 85, 86}, "worse"},
		{higher, summary{114, 115, 116}, "same"},
		{lower, summary{90, 105, 120}, "unresolved"},
	} {
		if _, got := verdict(c.m, base, c.b); got != c.want {
			t.Errorf("%s better, b=%+v: %s, want %s", c.m.Better, c.b, got, c.want)
		}
	}
}

// TestReportedValue pins what a run answers with: the good-side quartile,
// and for an end-to-end timing or rate that value at the reference speed.
func TestReportedValue(t *testing.T) {
	r := &report{Slowdown: 1.25, Metrics: map[string]measured{
		"latency_ms": {Unit: "ms", Q1: 10, Median: 12, Q3: 15},
		"rate":       {Unit: "tuples/s", Q1: 800, Median: 900, Q3: 1000},
		"overhead":   {Unit: "%", Q1: 4, Median: 5, Q3: 6},
	}}
	for _, c := range []struct {
		m        metricSpec
		endToEnd bool
		want     float64
	}{
		{metricSpec{Name: "latency_ms", Unit: "ms", Better: "lower"}, true, 8},     // 10 / 1.25
		{metricSpec{Name: "rate", Unit: "tuples/s", Better: "higher"}, true, 1250}, // 1000 * 1.25
		{metricSpec{Name: "overhead", Unit: "%", Better: "lower"}, true, 4},        // not a timing
		{metricSpec{Name: "latency_ms", Unit: "ms", Better: "lower"}, false, 10},   // per-layer: never scaled
	} {
		if got := r.reported(c.m, c.endToEnd); got != c.want {
			t.Errorf("%s endToEnd=%v: reported %v, want %v", c.m.Name, c.endToEnd, got, c.want)
		}
	}
	if ms := calibrate(); ms <= 0 {
		t.Errorf("the calibration kernel took %v ms", ms)
	}
}

// smokeSizes is the benchmark at about a hundredth of its size.
var smokeSizes = sizes{
	StepRounds: 16, PassSteps: 3, OpBatch: 100, PassBatches: 3, ArchiveStep: 9,
	Selects: 4, Recoveries: 2,
	StackIterations: 1000, SimDivisor: 50,
	MinCollectPasses: 1, MinRecordPasses: 2, MinReadbackPasses: 1, MinSimPasses: 1,
}

// TestSmoke runs every workload at 1/100 size and asserts only what the
// reference checks assert — no timing — plus that the run measures every
// metric BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%s lists %d workloads, the program has %d", specFile, len(sp.Workloads), len(workloads))
	}
	for _, listed := range sp.Workloads {
		w, ok := findWorkload(listed.Name)
		if !ok {
			t.Fatalf("%s lists workload %q, which the program does not have", specFile, listed.Name)
		}
		for _, trace := range []bool{false, true} {
			cfg := config{Workload: w, Seed: 7, Seconds: 0.01, Trace: trace, Sizes: smokeSizes, Scratch: t.TempDir()}
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !rep.correct() || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %s", w.Name, trace, rep.Failed, rep.Attempted, strings.Join(rep.Problems, "; "))
			}
			if _, err := rep.result(sp.wanted(trace), !trace); err != nil {
				t.Errorf("%s trace=%v: %v", w.Name, trace, err)
			}
		}
	}
}

// TestFailedCheckIsReported makes a reference check fail and expects the
// run to say so: a sealed archive compared with a stream it was not
// written from.
func TestFailedCheckIsReported(t *testing.T) {
	w, _ := findWorkload("record_full")
	cfg := config{Workload: w, Seed: 7, Seconds: 0.01, Sizes: smokeSizes, Scratch: t.TempDir()}
	fix, err := setUp(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fix.tearDown()
	dir := t.TempDir()
	res, err := fix.recordPass(dir, cfg.Sizes.PassSteps, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := fix.reference()

	good := newReport(cfg)
	if err := fix.verifyPass(dir, res, ref.pass, good); err != nil {
		t.Fatal(err)
	}
	if !good.correct() {
		t.Fatalf("an untouched pass fails its check: %v", good.Problems)
	}

	// One generated tuple the archive never received.
	missing := ref.pass
	missing.add(Tuple{ECID: 1, Seq: 1 << 30, Start: 1, End: 2})
	bad := newReport(cfg)
	if err := fix.verifyPass(dir, res, missing, bad); err != nil {
		t.Fatal(err)
	}
	if bad.correct() || bad.Failed != 1 {
		t.Fatalf("a missing tuple went unnoticed: failed=%d", bad.Failed)
	}
	line, err := bad.result(nil, true)
	if err != nil || !strings.Contains(line, `"correct":false`) || !strings.Contains(line, `"failed":1`) {
		t.Fatalf("result line %q, %v", line, err)
	}
}
