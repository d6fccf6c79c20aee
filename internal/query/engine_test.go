package query

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"eventspace/internal/archive"
	"eventspace/internal/collect"
	"eventspace/internal/hrtime"
	"eventspace/internal/metrics"
	"eventspace/internal/paths"
)

// nullSink discards forwarded batches; pure-engine tests only care
// about the alert stream.
type nullSink struct{}

func (nullSink) AppendRaw([]byte) error { return nil }

func mustParse(t *testing.T, src string) *Stmt {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return s
}

// offerAt feeds one tuple with the given start stamp (and a tiny
// latency) through the replay path.
func offerAt(t *testing.T, e *Engine, ecid uint32, ret int16, start int64) {
	t.Helper()
	if err := e.Offer([]collect.TraceTuple{{
		ECID: ecid, Op: paths.OpRead, Ret: ret,
		Start: hrtime.Stamp(start), End: hrtime.Stamp(start + 10),
	}}); err != nil {
		t.Fatal(err)
	}
}

func alertKeys(alerts []collect.AlertTuple) [][3]int64 {
	var out [][3]int64
	for _, a := range alerts {
		out = append(out, [3]int64{int64(a.Seq), int64(a.Group), int64(a.At)})
	}
	return out
}

// TestEngineEdgeTrigger: a standing alert fires once when its condition
// becomes true, stays silent while it remains true, and re-arms after a
// tick where it is false.
func TestEngineEdgeTrigger(t *testing.T) {
	e := NewEngine(nullSink{})
	stmt := mustParse(t, "alert when count() > 1 window 1us")
	if err := e.Register(stmt); err != nil {
		t.Fatal(err)
	}
	for _, start := range []int64{100, 600, 1000} {
		offerAt(t, e, 1, 0, start) // tick@1000: count 3 -> fire
	}
	offerAt(t, e, 1, 0, 1600)
	offerAt(t, e, 1, 0, 2000) // tick@2000: count 2, still true -> silent
	offerAt(t, e, 1, 0, 3500) // tick@3000: empty window -> false -> re-arm
	offerAt(t, e, 1, 0, 4000) // tick@4000: count 2 -> fire again

	got := alertKeys(e.Alerts())
	want := [][3]int64{{0, 0, 1000}, {1, 0, 4000}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("alerts = %v, want %v", got, want)
	}
	for _, a := range e.Alerts() {
		if a.QueryHash != stmt.Hash() {
			t.Fatalf("alert hash %016x, want %016x", a.QueryHash, stmt.Hash())
		}
	}
}

// TestEngineForRounds: "for N rounds" requires N consecutive true
// ticks before firing, and a false tick resets the streak.
func TestEngineForRounds(t *testing.T) {
	e := NewEngine(nullSink{})
	if err := e.Register(mustParse(t, "alert when count() > 0 window 1us for 2 rounds")); err != nil {
		t.Fatal(err)
	}
	offerAt(t, e, 1, 0, 100)
	offerAt(t, e, 1, 0, 1000) // tick@1000: streak 1
	offerAt(t, e, 1, 0, 2000) // tick@2000: streak 2 -> fire
	offerAt(t, e, 1, 0, 3000) // tick@3000: streak 3, already fired
	offerAt(t, e, 1, 0, 4500) // tick@4000: empty window -> streak reset
	offerAt(t, e, 1, 0, 5000) // tick@5000: streak 1
	offerAt(t, e, 1, 0, 6000) // tick@6000: streak 2 -> fire

	got := alertKeys(e.Alerts())
	want := [][3]int64{{0, 0, 2000}, {1, 0, 6000}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("alerts = %v, want %v", got, want)
	}
}

// TestEngineByGroup: grouped alerts track per-collector state; a group
// absent from a whole window loses its fired latch and may fire again.
func TestEngineByGroup(t *testing.T) {
	e := NewEngine(nullSink{})
	if err := e.Register(mustParse(t, "alert when errors() > 0 by ecid window 1us")); err != nil {
		t.Fatal(err)
	}
	offerAt(t, e, 1, -1, 100)
	offerAt(t, e, 2, 0, 200)
	offerAt(t, e, 2, -1, 600)
	offerAt(t, e, 1, 0, 1000) // tick@1000: both groups err -> fire ec1, ec2
	offerAt(t, e, 1, 0, 2000) // tick@2000: ec1 clean -> re-arm; ec2 silent -> state dropped
	offerAt(t, e, 2, -1, 2500)
	offerAt(t, e, 1, -1, 3000) // tick@3000: both err again -> fire ec1, ec2

	got := alertKeys(e.Alerts())
	want := [][3]int64{{0, 1, 1000}, {1, 2, 1000}, {2, 1, 3000}, {3, 2, 3000}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("alerts = %v, want %v", got, want)
	}
}

func encodeBatch(ts []collect.TraceTuple) []byte {
	buf := make([]byte, len(ts)*collect.TupleSize)
	for i := range ts {
		ts[i].EncodeTo(buf[i*collect.TupleSize:])
	}
	return buf
}

// TestEngineLiveMatchesReplay is the determinism contract of DESIGN.md
// §14: alerts fired live while archiving must be reproduced exactly by
// (a) decoding the archived alert tuples and (b) re-running the same
// statements over the archived data tuples.
func TestEngineLiveMatchesReplay(t *testing.T) {
	t.Run("columnar", func(t *testing.T) {
		dir := t.TempDir()
		w, err := archive.Create(archive.Options{
			Dir: dir, SegmentBytes: 600, BlockTuples: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		stmts := []*Stmt{
			mustParse(t, "alert when count() > 1 window 2us"),
			mustParse(t, "alert when errors() > 0 by ecid window 5us"),
		}
		eng := NewEngine(w)
		eng.SetExpected(3)
		for _, s := range stmts {
			if err := eng.Register(s); err != nil {
				t.Fatal(err)
			}
		}
		tuples := testTuples()
		for i := 0; i < len(tuples); i += 7 {
			end := i + 7
			if end > len(tuples) {
				end = len(tuples)
			}
			if err := eng.AppendRaw(encodeBatch(tuples[i:end])); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		live := eng.Alerts()
		if len(live) == 0 {
			t.Fatal("no alerts fired during the live run")
		}

		r, err := archive.OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		archived, stats, err := archive.ReplayAlerts(r, archive.Query{})
		if err != nil {
			t.Fatal(err)
		}
		// Read a batch at a time, the alert scan counts what a per-tuple
		// Scan under the same pushdown counts.
		controls := archive.Query{ECIDs: []uint32{collect.ControlECID}, Ops: []paths.OpKind{paths.OpAlert}}
		if want, err := r.Scan(controls, func(collect.TraceTuple) bool { return true }); err != nil || stats != want {
			t.Fatalf("alert replay scan stats %+v, Scan's %+v (%v)", stats, want, err)
		}
		if !reflect.DeepEqual(archived, live) {
			t.Errorf("archived alerts %v != live %v", archived, live)
		}
		regen, err := Replay(r, stmts, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(regen, live) {
			t.Errorf("regenerated alerts %v != live %v", regen, live)
		}
	})
}

// TestEnginePruningInvisible: the engine's buffer pruning must never
// change results — feeding a long stream in one engine and the same
// stream through another must agree even as pruning kicks in.
func TestEnginePruningInvisible(t *testing.T) {
	const n = 5000
	mk := func() *Engine {
		e := NewEngine(nullSink{})
		if err := e.Register(mustParse(t, "alert when count() > 2 by ecid window 1us")); err != nil {
			t.Fatal(err)
		}
		return e
	}
	a := mk()
	for i := 0; i < n; i++ {
		offerAt(t, a, uint32(1+i%2), 0, int64(i)*200)
	}
	b := mk()
	for i := 0; i < n; i++ {
		offerAt(t, b, uint32(1+i%2), 0, int64(i)*200)
	}
	if !reflect.DeepEqual(a.Alerts(), b.Alerts()) {
		t.Fatal("identical streams produced different alerts")
	}
	if len(a.Alerts()) == 0 {
		t.Fatal("expected alerts from the dense stream")
	}
}

// refPrune is the pruning rule in plain form — recount the whole buffer
// after every tuple — applied to a shadow of the engine's buffer.
func refPrune(e *Engine, buf []collect.TraceTuple) []collect.TraceTuple {
	if len(buf) < 1024 {
		return buf
	}
	min := e.queries[0].lastTick
	for _, st := range e.queries[1:] {
		if st.lastTick < min {
			min = st.lastTick
		}
	}
	live := 0
	for _, t := range buf {
		if t.Start > min-e.maxWindow {
			live++
		}
	}
	if live*2 > len(buf) {
		return buf
	}
	kept := make([]collect.TraceTuple, 0, live)
	for _, t := range buf {
		if t.Start > min-e.maxWindow {
			kept = append(kept, t)
		}
	}
	return kept
}

// TestEnginePruneMatchesRecount: the buffer is in the checkpoint frame,
// so the carried live count must compact exactly when a recount per
// tuple would — over out-of-order stamps, two tick rates, and an engine
// rolled back to its own earlier snapshot in mid-stream.
func TestEnginePruneMatchesRecount(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		e := NewEngine(nullSink{})
		for _, src := range []string{
			"alert when count() > 40 by ecid window 5us",
			"alert when errors() > 0 window 1us every 1us",
		} {
			if err := e.Register(mustParse(t, src)); err != nil {
				t.Fatal(err)
			}
		}
		rnd := seed * 0x9E3779B97F4A7C15
		tuples := make([]collect.TraceTuple, 8000)
		for i := range tuples {
			rnd = rnd*6364136223846793005 + 1442695040888963407
			start := hrtime.Stamp(int64(i)*7 - int64(rnd>>40%3000)) // up to 3 us late
			tuples[i] = collect.TraceTuple{ECID: uint32(1 + rnd>>60), Op: paths.OpRead, Start: start, End: start + 10}
		}
		// The rollback lands inside one tick of the slower query, where
		// the count carried past the snapshot is stale but its horizon
		// still matches.
		cut, resume := 3000+int(seed)*1111, 40
		var snap EngineState
		var ref, refSnap []collect.TraceTuple
		compactions := 0
		for i := 0; i < len(tuples); i++ {
			switch {
			case i == cut && snap.Queries == nil:
				snap, refSnap = e.State(), slices.Clone(ref)
			case i == cut+resume && refSnap != nil:
				if err := e.Restore(snap); err != nil {
					t.Fatal(err)
				}
				ref, refSnap, i = refSnap, nil, cut
			}
			if err := e.Offer(tuples[i : i+1]); err != nil {
				t.Fatal(err)
			}
			before := len(ref) + 1
			ref = refPrune(e, append(ref, tuples[i]))
			if len(ref) < before {
				compactions++
			}
			if len(e.buf) != len(ref) || (len(ref) < before || i%16 == 0) && !slices.Equal(e.buf, ref) {
				t.Fatalf("seed %d tuple %d: buffer holds %d tuples, a recount per tuple keeps %d", seed, i, len(e.buf), len(ref))
			}
			live := 0
			for _, c := range e.buf[:e.counted] {
				if c.Start > e.liveAt {
					live++
				}
			}
			if live != e.live {
				t.Fatalf("seed %d tuple %d: carried count %d, %d of the %d counted tuples are live", seed, i, e.live, live, e.counted)
			}
		}
		if compactions < 5 {
			t.Fatalf("seed %d: %d compactions, the stream never exercised the rule", seed, compactions)
		}
	}
}

// splitmix is a seeded source for the differential streams.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// refStream is n tuples, one every 7 ns from base, each up to 3 µs
// late, stamped on a 10 ns grid so many fall on a window's edge: 16
// collectors, with stretches of 2 000 tuples where only 12 report; a
// tenth with a latency five times the usual ceiling; one in 200 failed.
func refStream(seed uint64, n int, base int64) []collect.TraceTuple {
	rnd := splitmix(seed)
	out := make([]collect.TraceTuple, n)
	for i := range out {
		ecids := uint64(16)
		if i/2000%2 == 1 {
			ecids = 12
		}
		start := base + (int64(i)*7-int64(rnd.next()%3000))/10*10
		lat := int64(10 + rnd.next()%1000)
		if rnd.next()%10 == 0 {
			lat = 5000
		}
		var ret int16
		if rnd.next()%200 == 0 {
			ret = -1
		}
		out[i] = collect.TraceTuple{
			ECID: uint32(1 + rnd.next()%ecids), Op: paths.OpRead, Ret: ret, Seq: uint32(i),
			Start: start, End: start + lat,
		}
	}
	return out
}

// sameEngine compares in place what State snapshots — the trigger
// tables whole, and the active lists in order, which is stricter — so a
// test can compare after every tuple without copying the buffer. Two
// engines fed the same tuples append the same ones, so their buffers
// can only part at a compaction: the contents are compared when buf
// says so, the length always.
func sameEngine(a, b *Engine, buf bool) bool {
	if a.expected != b.expected || a.watermark != b.watermark || a.seq != b.seq || len(a.buf) != len(b.buf) ||
		buf && !slices.Equal(a.buf, b.buf) || !slices.Equal(a.alerts, b.alerts) || len(a.queries) != len(b.queries) {
		return false
	}
	for i, q := range a.queries {
		r := b.queries[i]
		if q.anchored != r.anchored || q.lastTick != r.lastTick || !slices.Equal(q.trig, r.trig) || !slices.Equal(q.active, r.active) {
			return false
		}
	}
	return true
}

// TestEngineMatchesReference holds the cursor tick, the slot grouping
// and the batch ingest to the per-tuple, full-buffer, map-grouping
// engine they replaced (refOffer, reference_test.go): seeded streams
// up to 3 µs out of order, one crossing zero, grouped and ungrouped
// queries, coverage(), a private window wider than every query window,
// a for-N-rounds streak, a rollback to a mid-stream snapshot and
// several compactions, fed in batches of 1, 7 and 3 904 tuples and
// compared after every batch — in place, as snapshotting the buffer
// after every tuple would be most of the test's time — and by State at
// the end. -short runs the seed that crosses zero only.
func TestEngineMatchesReference(t *testing.T) {
	srcs := []string{
		"alert when count() > 40 by ecid window 5us",
		"alert when coverage() < 1.0 for 2 rounds every 1us",
		"alert when p90(latency) > 2 * median(latency, 8us) by ecid window 3us every 2us",
		"alert when errors() > 0 window 1us",
	}
	mk := func() *Engine {
		e := NewEngine(nil)
		e.SetExpected(16)
		for _, src := range srcs {
			if err := e.Register(mustParse(t, src)); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	const n = 12000
	seeds := uint64(3)
	if testing.Short() {
		seeds = 1
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		tuples := refStream(seed, n, int64(seed-2)*40_000)
		for _, size := range []int{1, 7, 3904} {
			e, ref := mk(), mk()
			var snap, refSnap EngineState
			snapAt, rolled, compactions := -1, false, 0
			for pos := 0; pos < len(tuples); {
				end := min(pos+size, len(tuples))
				if err := e.Offer(tuples[pos:end]); err != nil {
					t.Fatal(err)
				}
				compacted := false
				for _, tu := range tuples[pos:end] {
					before := len(ref.buf)
					if err := refOffer(ref, tu); err != nil {
						t.Fatal(err)
					}
					if len(ref.buf) <= before {
						compactions++
						compacted = true
					}
				}
				if !sameEngine(e, ref, compacted) {
					t.Fatalf("seed %d batch %d, after tuple %d: diverged from the reference; alerts %v, reference %v",
						seed, size, end, alertKeys(e.alerts), alertKeys(ref.alerts))
				}
				pos = end
				switch {
				case snapAt < 0 && pos >= n/3:
					snap, refSnap, snapAt = e.State(), ref.State(), pos
				case !rolled && snapAt >= 0 && pos >= snapAt+2500:
					if err := e.Restore(snap); err != nil {
						t.Fatal(err)
					}
					if err := ref.Restore(refSnap); err != nil {
						t.Fatal(err)
					}
					pos, rolled = snapAt, true
				}
			}
			if !reflect.DeepEqual(e.State(), ref.State()) {
				t.Fatalf("seed %d batch %d: final state diverged from the reference", seed, size)
			}
			if compactions < 5 {
				t.Fatalf("seed %d batch %d: %d compactions, the stream never exercised the cursor reset", seed, size, compactions)
			}
			fired := make(map[uint64]int)
			for _, a := range e.Alerts() {
				fired[a.QueryHash]++
			}
			for _, st := range e.queries {
				if fired[st.hash] == 0 {
					t.Fatalf("seed %d batch %d: %q never fired; the comparison proves nothing for it", seed, size, st.stmt)
				}
			}
		}
	}
}

// TestEngineNegativeStamps: stamps at or below zero tick like any
// others. A stream shifted down by a multiple of every query's tick
// fires the alerts of the unshifted one, At shifted alike, and a stream
// crossing zero ticks at −every, 0 and every.
func TestEngineNegativeStamps(t *testing.T) {
	run := func(stmts []*Stmt, tuples []collect.TraceTuple) []collect.AlertTuple {
		e := NewEngine(nil)
		e.SetExpected(3)
		for _, s := range stmts {
			if err := e.Register(s); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Offer(tuples); err != nil {
			t.Fatal(err)
		}
		return e.Alerts()
	}
	const shift = -40_000 // ticks every 1, 2 and 5 µs; the stream ends before 30 µs
	pos := testTuples()
	neg := testTuples()
	for i := range neg {
		neg[i].Start += shift
		neg[i].End += shift
		if neg[i].Start >= 0 {
			t.Fatalf("tuple %d still starts at %d", i, neg[i].Start)
		}
	}
	want, got := run(stateStmts(t), pos), run(stateStmts(t), neg)
	if len(want) == 0 {
		t.Fatal("the positive stream fired nothing; the comparison proves nothing")
	}
	for i := range want {
		want[i].At += shift
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shifted stream fired %v, want %v", alertKeys(got), alertKeys(want))
	}

	// A fresh group per window, so each tick fires once.
	across := []collect.TraceTuple{
		{ECID: 1, Start: -1500, End: -1490},
		{ECID: 2, Start: -500, End: -490},
		{ECID: 3, Start: 1000, End: 1010},
	}
	got = run([]*Stmt{mustParse(t, "alert when count() > 0 by ecid window 1us")}, across)
	if keys, want := alertKeys(got), [][3]int64{{0, 1, -1000}, {1, 2, 0}, {2, 3, 1000}}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("stream across zero fired %v, want %v", keys, want)
	}
}

// TestEngineMetricsCountErrors: a batch the engine fails on counts as a
// failed evaluation in its self-metrics, beside the one it evaluated.
func TestEngineMetricsCountErrors(t *testing.T) {
	reg := metrics.New()
	e := NewEngine(nullSink{})
	e.UseMetrics(reg, "t")
	if err := e.Register(mustParse(t, "alert when count() > 0 by ecid window 1us")); err != nil {
		t.Fatal(err)
	}
	if err := e.AppendRaw(encodeBatch([]collect.TraceTuple{{ECID: 1, Start: 100, End: 110}})); err != nil {
		t.Fatal(err)
	}
	bad := encodeBatch([]collect.TraceTuple{{ECID: 0x10000, Start: 500, End: 510}, {ECID: 1, Start: 1500, End: 1510}})
	if err := e.AppendRaw(bad); err == nil {
		t.Fatal("an ecid past 0xffff was grouped")
	}
	for _, op := range reg.Snapshot().ByKind(metrics.KindQuery) {
		if op.Name == "query-eval(t)" {
			if op.Ops != 2 || op.Errs != 1 {
				t.Fatalf("query-eval(t): %d ops, %d errors; want 2 and 1", op.Ops, op.Errs)
			}
			return
		}
	}
	t.Fatal("no query-eval(t) op in the registry")
}

// benchAlerts are the repo benchmark's three standing alerts.
var benchAlerts = []string{
	"alert when p99(latency) > 400us by ecid window 5ms",
	"alert when coverage() < 1.0 for 3 rounds every 1ms",
	"alert when errors() > 0 window 1ms",
}

// benchEngine is an engine without a sink running benchAlerts over a
// 61-collector roster.
func benchEngine(tb testing.TB) *Engine {
	e := NewEngine(nil)
	e.SetExpected(61)
	for _, src := range benchAlerts {
		s, err := Parse(src)
		if err != nil {
			tb.Fatal(err)
		}
		if err := e.Register(s); err != nil {
			tb.Fatal(err)
		}
	}
	return e
}

// benchReply fills dst with reply k of a stream shaped like the repo
// benchmark's: 61 collectors each drain 64 rounds of ~500 µs, one
// collector's run after another, so a reply spans 32 ms of stamps and
// most of it arrives after the ticks it falls in. With errs, about one
// tuple in 1 000 failed.
func benchReply(dst []collect.TraceTuple, k int, errs bool) []collect.TraceTuple {
	dst = dst[:0]
	for c := uint32(1); c <= 61; c++ {
		for r := k * 64; r < (k+1)*64; r++ {
			h := (uint64(r)*61 + uint64(c)) * 0x9E3779B97F4A7C15
			start := 1_000_000 + int64(r)*500_000 + int64(h>>40%40_000)
			var ret int16
			if errs && h>>8%1000 == 0 {
				ret = -1
			}
			dst = append(dst, collect.TraceTuple{
				ECID: c, Op: paths.OpRead, Ret: ret, Seq: uint32(r),
				Start: start, End: start + 100_000 + int64(h>>20%200_000),
			})
		}
	}
	return dst
}

// TestEngineWarmTickZeroAlloc: once its buffer and scratch have grown,
// the engine takes benchmark-shaped replies — ticks, window scans,
// grouping, compactions — without allocating. Fired alerts are
// retained, so the list gets room up front.
func TestEngineWarmTickZeroAlloc(t *testing.T) {
	e := benchEngine(t)
	e.alerts = make([]collect.AlertTuple, 0, 1024)
	var batch []collect.TraceTuple
	k := 0
	feed := func() {
		batch = benchReply(batch, k, false)
		k++
		if err := e.Offer(batch); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		feed()
	}
	for i := 0; i < 10; i++ {
		if allocs := testing.AllocsPerRun(1, feed); allocs != 0 {
			t.Fatalf("reply %d: a warm engine allocated %.0f objects", k, allocs)
		}
	}
	if len(e.Alerts()) == 0 || cap(e.alerts) != 1024 {
		t.Fatalf("%d alerts fired, list capacity %d: the stream should fire some, within the room given", len(e.Alerts()), cap(e.alerts))
	}
}

// BenchmarkEngineAppendRaw is the engine's share of the record path:
// benchmark-shaped 3 904-tuple replies through AppendRaw into a warm
// engine running the benchmark's three standing alerts. One op is one
// reply; it also reports ns/tuple. Part of make engine-gates: 0
// allocs/op.
func BenchmarkEngineAppendRaw(b *testing.B) {
	e := benchEngine(b)
	var tuples []collect.TraceTuple
	var data []byte
	k := 0
	next := func() {
		tuples = benchReply(tuples, k, true)
		k++
		data = slices.Grow(data[:0], len(tuples)*collect.TupleSize)[:len(tuples)*collect.TupleSize]
		for i := range tuples {
			tuples[i].EncodeTo(data[i*collect.TupleSize:])
		}
	}
	for i := 0; i < 8; i++ {
		next()
		if err := e.AppendRaw(data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		next()
		b.StartTimer()
		if err := e.AppendRaw(data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tuples)), "ns/tuple")
}

// TestEngineRaggedBatchEvaluatesWholeTuples: a batch that ends mid-tuple
// is archived up to the tear, so it is evaluated up to the tear before
// the tear is reported. The engine used to return at its sink's error
// and never evaluate what the sink had archived, falling behind the
// archive; a replay of that archive then fired alerts the live engine
// never did. Evaluated alike, the ragged run's state and alerts equal
// those of a run fed the same whole tuples, with a sink and without.
func TestEngineRaggedBatchEvaluatesWholeTuples(t *testing.T) {
	tuples := testTuples()
	stmts := []string{
		"alert when count() > 1 window 2us",
		"alert when errors() > 0 by ecid window 5us",
	}
	for _, withSink := range []bool{true, false} {
		t.Run(fmt.Sprintf("sink=%v", withSink), func(t *testing.T) {
			run := func(stray int) *Engine {
				t.Helper()
				var sink Sink
				if withSink {
					w, err := archive.Create(archive.Options{Dir: t.TempDir(), BlockTuples: 8})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { w.Close() })
					sink = w
				}
				e := NewEngine(sink)
				e.SetExpected(3)
				for _, src := range stmts {
					if err := e.Register(mustParse(t, src)); err != nil {
						t.Fatal(err)
					}
				}
				head := append(encodeBatch(tuples[:35]), make([]byte, stray)...)
				err := e.AppendRaw(head)
				var pe *collect.PartialTupleError
				switch {
				case stray == 0 && err != nil:
					t.Fatal(err)
				case stray > 0 && (!errors.As(err, &pe) || pe.Offset != 35*collect.TupleSize || pe.Remaining != stray):
					t.Fatalf("ragged batch: err %v, want the tear at tuple 35", err)
				}
				if err := e.AppendRaw(encodeBatch(tuples[35:])); err != nil {
					t.Fatal(err)
				}
				return e
			}
			want, got := run(0), run(5)
			if !reflect.DeepEqual(got.State(), want.State()) {
				t.Fatalf("ragged run's state diverged: %d alerts and %d retained tuples, whole run %d and %d",
					len(got.Alerts()), len(got.State().Buf), len(want.Alerts()), len(want.State().Buf))
			}
			if len(want.Alerts()) == 0 {
				t.Fatal("no alert fired: the test compares nothing")
			}
		})
	}
}
