package query

import (
	"reflect"
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
