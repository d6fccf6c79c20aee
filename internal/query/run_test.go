package query

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"eventspace/internal/archive"
	"eventspace/internal/collect"
	"eventspace/internal/paths"
)

// writeDiffArchive writes the seeded archive the differential test
// runs on, built to reach every branch of the block walk and the cell
// resolver: collectors in runs (the last-cell cache hits) and
// interleaved (it misses), stamps that start below zero and are only
// near-monotonic, error returns, mode and alert control tuples, a burst
// of 700 distinct ECIDs (more than a block's dictionary holds, so those
// blocks fall back to raw), many small segments, and — when tear is set
// — a last segment cut mid-block.
func writeDiffArchive(t *testing.T, dir string, seed int64, tear bool) *archive.Reader {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w, err := archive.Create(archive.Options{Dir: dir, SegmentBytes: 5000, BlockTuples: 320})
	if err != nil {
		t.Fatal(err)
	}
	stamp := int64(-40_000)
	var seq uint32
	data := func(ecid uint32) collect.TraceTuple {
		stamp += int64(rng.Intn(120)) - 10
		seq++
		tu := collect.TraceTuple{
			ECID: ecid, Op: paths.OpWrite, Seq: seq,
			Start: stamp, End: stamp + int64(50+rng.Intn(8))*int64(1+rng.Intn(40)),
		}
		if rng.Intn(3) == 0 {
			tu.Op = paths.OpRead
		}
		if rng.Intn(11) == 0 {
			tu.Ret = -int16(1 + rng.Intn(3))
		}
		return tu
	}
	var batch []collect.TraceTuple
	for round := 0; round < 40; round++ {
		batch = batch[:0]
		switch {
		case round == 17:
			for i := 0; i < 700; i++ {
				batch = append(batch, data(uint32(1000+i)))
			}
		case round%3 == 0:
			for i := 0; i < 90; i++ {
				batch = append(batch, data(uint32(1+rng.Intn(9))))
			}
		default:
			for c := uint32(1); c <= 9; c++ {
				for i := 0; i < 8+rng.Intn(8); i++ {
					batch = append(batch, data(c))
				}
			}
		}
		if round%5 == 2 {
			batch = append(batch,
				collect.EncodeAlert(collect.AlertTuple{QueryHash: collect.HashName("scope"), Group: 1, Seq: uint32(round), At: stamp}),
				collect.EncodeAlert(collect.AlertTuple{QueryHash: 0xfeedfacecafebeef, Group: 3, Seq: uint32(round), At: stamp}))
		}
		if err := w.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := archive.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if tear {
		segs := r.Segments()
		last := segs[len(segs)-1].Path
		img, err := os.ReadFile(last)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(last, img[:len(img)-9], 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err = archive.OpenReader(dir); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.Segments()) < 5 {
		t.Fatalf("fixture spans %d segments, want a handful", len(r.Segments()))
	}
	return r
}

// aggSpellings is every aggregate kind a select accepts, over every
// field shape: durations, signed and unsigned integers, the op enum.
var aggSpellings = []string{
	"count()", "errors()",
	"sum(latency)", "sum(ret)", "mean(latency)", "mean(seq)", "mean(ret)",
	"min(latency)", "min(ret)", "max(end)", "max(start)", "min(ecid)",
	"median(latency)", "p50(latency)", "p90(latency)", "p99(latency)", "p99(seq)", "median(ret)",
	"distinct(op)", "distinct(ecid)", "distinct(latency)",
}

// TestRunMatchesReference is the streaming aggregate path's contract:
// on seeded archives, for every aggregate kind × {by ecid, none} ×
// {window, none} × {where, none}, under the statement's own pushdown
// and under a query that lets the negative stamps through, RunQuery
// returns the rows, the scan stats and the error the
// tuple-materialising reference does.
func TestRunMatchesReference(t *testing.T) {
	wheres := []string{
		"",
		" where latency > 400ns and ret >= 0",
		" where ecid in (2, 5, 1003) or op == read",
		" where start >= 20us and start < 60us", // whole segments fall outside
		" where ecid == 0",                      // the control tuples alone
		" where seq > 100000",                   // nothing
	}
	for _, tear := range []bool{false, true} {
		r := writeDiffArchive(t, t.TempDir(), 19+int64(len(wheres)), tear)
		var srcs []string
		for _, by := range []string{"", " by ecid"} {
			for _, win := range []string{"", " window 7us"} {
				for _, where := range wheres {
					for _, agg := range aggSpellings {
						srcs = append(srcs, "select "+agg+where+by+win)
					}
					// Several columns at once: shared fields, shared arenas.
					srcs = append(srcs, "select count(), p99(latency), mean(latency), median(latency), distinct(ret), max(ret), p90(seq)"+where+by+win)
				}
			}
		}
		var skipped, torn int
		for _, src := range srcs {
			s, err := Parse(src)
			if err != nil {
				t.Fatalf("%q: %v", src, err)
			}
			for _, aq := range []archive.Query{s.Pushdown(), {}} {
				got, gotStats, gotErr := RunQuery(r, s, aq)
				want, wantStats, wantErr := refRunQuery(r, s, aq)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%q: error %v, reference %v", src, gotErr, wantErr)
				}
				if gotStats != wantStats {
					t.Fatalf("%q: stats %+v, reference %+v", src, gotStats, wantStats)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%q (%+v): result differs from the reference\n got %+v\nwant %+v", src, aq, got, want)
				}
				skipped += gotStats.SegmentsSkipped
				torn += gotStats.TornSegments
			}
		}
		if skipped == 0 {
			t.Fatal("no statement's pushdown skipped a segment")
		}
		if (torn > 0) != tear {
			t.Fatalf("tear=%v but scans counted %d torn segments", tear, torn)
		}
	}
	// The wide case: thousands of cells, several table doublings,
	// buckets out of order within every group.
	r := writeWideArchive(t, t.TempDir())
	for _, src := range []string{
		"select count(), p99(latency), mean(latency), median(latency), distinct(seq) by ecid window 300ns",
		"select count(), p90(latency), min(start) window 70ns",
		"select count(), max(latency) where latency > 300ns by ecid window 1us",
	} {
		s, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		got, gotStats, gotErr := RunQuery(r, s, archive.Query{})
		want, wantStats, wantErr := refRunQuery(r, s, archive.Query{})
		if gotErr != nil || wantErr != nil || gotStats != wantStats {
			t.Fatalf("%q: error %v stats %+v, reference %v %+v", src, gotErr, gotStats, wantErr, wantStats)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: result differs from the reference", src)
		}
		if len(got.Rows) < 2000 {
			t.Fatalf("%q: %d rows, want thousands", src, len(got.Rows))
		}
	}
}

// feedCells resolves one batch through a cell index the way aggRun.feed
// does: resolve until a tuple has no cell, add it, resume.
func feedCells(batch []collect.TraceTuple, cell []int32, resolve func([]collect.TraceTuple, []int32, int) int, add func(*collect.TraceTuple)) {
	for i := 0; ; {
		if i = resolve(batch, cell, i); i == len(batch) {
			return
		}
		add(&batch[i])
	}
}

// checkCellIndex decodes a key stream from data, feeds it to the
// open-addressed cell index and the map-backed reference in the same
// batches, and requires the same cell of every tuple, the same keys
// and the same row order. It returns the number of cells.
//
// data[0] bit 0 groups by ECID; data[0]>>1 is how many more times the
// tuple list repeats, each repeat shifting every group and carrying
// the stamp on, so a short input makes many cells. The window is
// 1+data[1]%128 shifted left by data[2] (unwindowed from 56 on), so it
// can have many trailing zero bits. data[3:11] is the first stamp,
// little-endian: anything down to the int64 minimum, where bucketOf
// wraps. data[11] sets the batch length. Then each byte pair (g, d) is
// a tuple: group g scrambled over 32 bits, stamp moved by int8(d)
// quarter windows, either way, so buckets step backwards too.
func checkCellIndex(tb testing.TB, data []byte) int {
	if len(data) < 14 {
		return 0
	}
	byECID := data[0]&1 != 0
	reps := 1 + int(data[0]>>1)
	var window int64
	if shift := data[2]; shift < 56 {
		window = (1 + int64(data[1]%128)) << shift
	}
	stamp := int64(binary.LittleEndian.Uint64(data[3:11]))
	batchLen := 1 + int(data[11]%64)
	pairs := data[12:]
	var tuples []collect.TraceTuple
	for r := 0; r < reps; r++ {
		for i := 0; i+1 < len(pairs); i += 2 {
			stamp += int64(int8(pairs[i+1])) * (window/4 + 1)
			group := uint32(pairs[i])*0x01000193 + uint32(r)*0x9E3779B1
			tuples = append(tuples, collect.TraceTuple{ECID: group, Start: stamp})
		}
	}
	x, ref := newCellIndex(byECID, window), newRefCellIndex(byECID, window)
	cell, refCell := make([]int32, batchLen), make([]int32, batchLen)
	for len(tuples) > 0 {
		n := min(batchLen, len(tuples))
		batch := tuples[:n]
		tuples = tuples[n:]
		feedCells(batch, cell, x.resolve, x.add)
		feedCells(batch, refCell, ref.resolve, ref.add)
		if !slices.Equal(cell[:n], refCell[:n]) {
			tb.Fatalf("cells %v, reference %v", cell[:n], refCell[:n])
		}
	}
	if !slices.Equal(x.keys, ref.keys) {
		tb.Fatalf("%d keys differ from the reference's %d", len(x.keys), len(ref.keys))
	}
	if got, want := x.order(), ref.order(); !slices.Equal(got, want) {
		tb.Fatalf("row order %v, reference %v", got, want)
	}
	return len(x.keys)
}

// FuzzCellIndex holds the open-addressed cell table and the counting
// row order to the map and the comparison sort they replaced, on key
// streams decoded from bytes (checkCellIndex). The seeds cover groups
// in scrambled order, buckets stepping back within a group, negative
// and near-minimum stamps, windows with many trailing zero bits and
// enough cells for several table doublings.
func FuzzCellIndex(f *testing.F) {
	rng := rand.New(rand.NewSource(44))
	seed := func(flags, winMul, winShift byte, first int64, batch byte, pairs int, groups int) []byte {
		data := []byte{flags, winMul, winShift}
		data = binary.LittleEndian.AppendUint64(data, uint64(first))
		data = append(data, batch)
		for i := 0; i < pairs; i++ {
			data = append(data, byte(rng.Intn(groups)), byte(rng.Intn(9)-2))
		}
		return data
	}
	seeds := [][]byte{
		seed(1|31<<1, 77, 7, 1_000_000, 37, 200, 16),     // grouped, 10 ms-like window: many cells
		seed(1|15<<1, 4, 40, math.MinInt64+5, 9, 120, 5), // near the minimum: stamps wrap
		seed(1|3<<1, 2, 0, -12_345, 63, 90, 40),          // negative stamps, tiny window
		seed(0|63<<1, 0, 20, -1<<40, 5, 60, 3),           // ungrouped, 2^20 window
		seed(1|7<<1, 9, 60, 0, 1, 80, 200),               // grouped, unwindowed
		seed(1, 127, 55, math.MaxInt64-3, 2, 30, 4),      // near the maximum, widest window
	}
	most := 0
	for _, d := range seeds {
		most = max(most, checkCellIndex(f, d))
		f.Add(d)
	}
	if most < 2000 {
		f.Fatalf("the seeds make at most %d cells; want enough for several doublings", most)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCellIndex(t, data)
	})
}

// writeWideArchive writes an archive whose aggregate makes thousands of
// cells, more than the cell table holds before several doublings, in
// twelve groups spread over 32 bits, with every group's buckets in
// random order and stamps on both sides of zero.
func writeWideArchive(t *testing.T, dir string) *archive.Reader {
	t.Helper()
	w, err := archive.Create(archive.Options{Dir: dir, SegmentBytes: 20000, BlockTuples: 256})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(44))
	ecids := []uint32{7, 1<<20 + 3, 42, 0xfffffff0, 9, 1 << 31, 500, 3, 65537, 11, 2, 1 << 24}
	batch := make([]collect.TraceTuple, 0, 500)
	for round := 0; round < 16; round++ {
		batch = batch[:0]
		for i := 0; i < 500; i++ {
			start := int64(rng.Intn(8000))*100 - 200_000
			batch = append(batch, collect.TraceTuple{
				ECID: ecids[rng.Intn(len(ecids))], Op: paths.OpWrite, Seq: uint32(round*500 + i),
				Start: start, End: start + int64(rng.Intn(900)),
			})
		}
		if err := w.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := archive.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRunErrorsMatchReference: statements Run refuses, and a scan that
// fails half way, report what the reference reports.
func TestRunErrorsMatchReference(t *testing.T) {
	dir := t.TempDir()
	r := writeDiffArchive(t, dir, 5, false)
	for _, src := range []string{"select *", "alert when count() > 3 every 10us"} {
		s, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		_, _, gotErr := RunQuery(r, s, archive.Query{})
		_, _, wantErr := refRunQuery(r, s, archive.Query{})
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%q: error %v, reference %v", src, gotErr, wantErr)
		}
	}
	// A segment whose header rots after the reader indexed it fails the
	// scan when the walk reaches it.
	segs := r.Segments()
	mid := segs[len(segs)/2].Path
	img, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	img[5] ^= 0xff
	if err := os.WriteFile(mid, img, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Parse("select count(), median(latency) by ecid")
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, gotErr := RunQuery(r, s, archive.Query{})
	want, wantStats, wantErr := refRunQuery(r, s, archive.Query{})
	if gotErr == nil || gotErr.Error() != wantErr.Error() || got != nil || want != nil {
		t.Fatalf("error %v (result %v), reference %v (result %v)", gotErr, got, wantErr, want)
	}
	if gotStats != wantStats {
		t.Fatalf("stats %+v, reference %+v", gotStats, wantStats)
	}
}

// TestBucketOfFloors: buckets tile the stamp line across zero — every
// stamp lies in [bucket, bucket+window), and the bucket is a multiple
// of the window — where truncation put (-w, w) in one bucket and named
// every negative bucket by its right edge.
func TestBucketOfFloors(t *testing.T) {
	for _, tc := range []struct{ s, w, want int64 }{
		{0, 10, 0}, {9, 10, 0}, {10, 10, 10}, {19, 10, 10},
		{-1, 10, -10}, {-9, 10, -10}, {-10, 10, -10}, {-11, 10, -20}, {-20, 10, -20},
		{7, 1, 7}, {-7, 1, -7},
		{-1, 1 << 40, -(1 << 40)},
		{math.MaxInt64, 1000, math.MaxInt64 - math.MaxInt64%1000},
	} {
		got := bucketOf(tc.s, tc.w)
		if got != tc.want {
			t.Errorf("bucketOf(%d, %d) = %d, want %d", tc.s, tc.w, got, tc.want)
		}
		if got > tc.s || tc.s-got >= tc.w || got%tc.w != 0 {
			t.Errorf("bucketOf(%d, %d) = %d does not hold its stamp", tc.s, tc.w, got)
		}
	}
}

// TestComputeAggMatchesReference: the engine's per-tick aggregate —
// the same accumulate/finish code as the select, over one cell with the
// env's scratch — equals the reference on every kind, coverage and the
// empty window included, with the scratch reused across calls.
func TestComputeAggMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	aggs := []*Agg{
		{Kind: AggCount}, {Kind: AggErrors}, {Kind: AggCoverage},
		{Kind: AggSum, Arg: FieldLatency}, {Kind: AggSum, Arg: FieldRet},
		{Kind: AggMean, Arg: FieldLatency}, {Kind: AggMean, Arg: FieldSeq},
		{Kind: AggMin, Arg: FieldRet}, {Kind: AggMax, Arg: FieldEnd},
		{Kind: AggMedian, Arg: FieldLatency}, {Kind: AggP50, Arg: FieldLatency},
		{Kind: AggP90, Arg: FieldLatency}, {Kind: AggP99, Arg: FieldSeq},
		{Kind: AggDistinct, Arg: FieldOp}, {Kind: AggDistinct, Arg: FieldECID},
	}
	var env aggEnv
	for _, n := range []int{0, 1, 2, 3, 10, 99, 100, 101, 400, 7} {
		tuples := make([]collect.TraceTuple, n)
		for i := range tuples {
			start := int64(rng.Intn(5000)) - 500
			tuples[i] = collect.TraceTuple{
				ECID: uint32(1 + rng.Intn(6)), Op: paths.OpKind(1 + rng.Intn(2)), Ret: int16(rng.Intn(5) - 2),
				Seq: uint32(rng.Intn(50)), Start: start, End: start + int64(rng.Intn(30))*10,
			}
		}
		for _, expected := range []int{0, 6} {
			env.expected = expected
			for _, a := range aggs {
				in := append([]collect.TraceTuple(nil), tuples...)
				got, want := env.computeAgg(a, in), refComputeAgg(a, tuples, expected)
				if got != want {
					t.Fatalf("%s over %d tuples (expected %d): %+v, reference %+v", a, n, expected, got, want)
				}
				if !slices.Equal(in, tuples) {
					t.Fatalf("%s reordered the engine's window", a)
				}
			}
		}
	}
}

// The repo benchmark's record-path shape: 61 collectors, each pull
// delivering the collectors one after another, 64 rounds apiece — so a
// 10 ms window holds about twenty of a collector's tuples, and in
// archive order the cell changes that often.
const (
	benchCollectors = 61
	benchRounds     = 64
)

// writeBenchArchive writes pulls collector-major pulls of the benchmark
// shape, a round every roundNS, and returns a reader; tuples = pulls ×
// 61 × 64.
func writeBenchArchive(tb testing.TB, dir string, pulls int, roundNS int64) *archive.Reader {
	tb.Helper()
	w, err := archive.Create(archive.Options{Dir: dir})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	batch := make([]collect.TraceTuple, 0, benchCollectors*benchRounds)
	for p := 0; p < pulls; p++ {
		batch = batch[:0]
		for c := uint32(1); c <= benchCollectors; c++ {
			for i := 0; i < benchRounds; i++ {
				round := int64(p*benchRounds + i)
				start := round*roundNS + int64(c)*40 + int64(rng.Intn(30))
				batch = append(batch, collect.TraceTuple{
					ECID: c, Op: paths.OpWrite, Seq: uint32(round),
					Start: start, End: start + 300 + int64(rng.Intn(400)),
				})
			}
		}
		if err := w.Append(batch); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	r, err := archive.OpenReader(dir)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// benchAggQuery is the benchmark's aggregate, with a window that keeps
// the cell count fixed for a fixed span whatever the tuple count.
const benchAggQuery = "select count(), p99(latency), mean(latency) by ecid window 10ms"

// TestRunAllocsScaleWithCells: an aggregate allocates per cell and per
// arena, never per tuple — at a fixed cell count, twice the tuples cost
// the same number of allocations.
func TestRunAllocsScaleWithCells(t *testing.T) {
	s, err := Parse("select count(), p99(latency), mean(latency) by ecid")
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(pulls int) (float64, int) {
		r := writeBenchArchive(t, t.TempDir(), pulls, 500_000)
		var rows int
		n := testing.AllocsPerRun(3, func() {
			res, _, err := RunQuery(r, s, archive.Query{})
			if err != nil {
				t.Fatal(err)
			}
			rows = len(res.Rows)
		})
		return n, rows
	}
	small, rows := allocs(4)
	big, bigRows := allocs(8)
	if rows != benchCollectors || bigRows != rows {
		t.Fatalf("cell counts %d and %d, want %d both", rows, bigRows, benchCollectors)
	}
	// A few allocations of slack: a segment image or a map bucket more.
	if big > small+8 {
		t.Fatalf("allocations grew with the tuples: %.0f for %d tuples, %.0f for twice that", small, 4*benchCollectors*benchRounds, big)
	}
	if small > 100 {
		t.Fatalf("%.0f allocations for a %d-cell aggregate", small, rows)
	}
}

// BenchmarkAggregateRun is the benchmark's aggregate on archives of the
// benchmark's shape (61 collectors, collector-major 64-round batches),
// reported per archived tuple, with the cells (result rows) each query
// makes. small is 32 pulls at 500 µs rounds: 124 928 tuples, 6 283
// cells. readback is the readback archive's size and density: 129
// pulls at 555 µs rounds, 503 616 tuples in 27 999 cells, 18 to a
// cell, so the cell table outgrows the cache as the readback's does.
func BenchmarkAggregateRun(b *testing.B) {
	for _, bc := range []struct {
		name    string
		pulls   int
		roundNS int64
	}{{"small", 32, 500_000}, {"readback", 129, 555_000}} {
		b.Run(bc.name, func(b *testing.B) {
			r := writeBenchArchive(b, b.TempDir(), bc.pulls, bc.roundNS)
			s, err := Parse(benchAggQuery)
			if err != nil {
				b.Fatal(err)
			}
			tuples := float64(r.Tuples())
			var rows int
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, stats, err := RunQuery(r, s, archive.Query{})
				if err != nil || len(res.Rows) == 0 || float64(stats.TuplesMatched) != tuples {
					b.Fatalf("rows %d stats %+v err %v", len(res.Rows), stats, err)
				}
				rows = len(res.Rows)
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/tuples, "ns/row")
			b.ReportMetric(float64(rows), "cells")
			b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(b.N)/tuples, "B/row")
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(b.N), "allocs/query")
		})
	}
}
