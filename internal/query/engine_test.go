package query

import (
	"reflect"
	"slices"
	"testing"

	"eventspace/internal/archive"
	"eventspace/internal/collect"
	"eventspace/internal/hrtime"
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
	if err := e.Offer(collect.TraceTuple{
		ECID: ecid, Op: paths.OpRead, Ret: ret,
		Start: hrtime.Stamp(start), End: hrtime.Stamp(start + 10),
	}); err != nil {
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
		archived, _, err := archive.ReplayAlerts(r, archive.Query{})
		if err != nil {
			t.Fatal(err)
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
			if err := e.Offer(tuples[i]); err != nil {
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
