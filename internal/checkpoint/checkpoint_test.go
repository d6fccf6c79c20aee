package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"eventspace/internal/analysis"
	"eventspace/internal/archive"
	"eventspace/internal/collect"
	"eventspace/internal/hrtime"
	"eventspace/internal/monitor"
	"eventspace/internal/paths"
	"eventspace/internal/query"
)

// testInfos fabricates collector metadata for two 3-contributor nodes:
// node "a" (collective ECID 10, contributors 1-3) and node "b"
// (collective 20, contributors 4-6).
func testInfos() []archive.CollectorInfo {
	infos := []archive.CollectorInfo{
		{ID: 10, Name: "coll-a", Role: collect.RoleCollective, Tree: "T", Node: "a", Contributor: -1},
		{ID: 20, Name: "coll-b", Role: collect.RoleCollective, Tree: "T", Node: "b", Contributor: -1},
	}
	for i := 0; i < 3; i++ {
		infos = append(infos,
			archive.CollectorInfo{ID: uint32(1 + i), Role: collect.RoleContributor, Tree: "T", Node: "a", Contributor: i},
			archive.CollectorInfo{ID: uint32(4 + i), Role: collect.RoleContributor, Tree: "T", Node: "b", Contributor: i},
		)
	}
	return infos
}

// testStream fabricates the matching tuple stream: rounds of collective
// plus contributor tuples, shuffled within a small horizon so rounds
// interleave and some are always pending when a checkpoint lands.
func testStream(rounds int) []collect.TraceTuple {
	rng := rand.New(rand.NewSource(11))
	var tuples []collect.TraceTuple
	for seq := uint32(1); seq <= uint32(rounds); seq++ {
		base := int64(10_000 + 1000*int64(seq))
		for _, node := range []struct {
			coll  uint32
			ecids []uint32
		}{{10, []uint32{1, 2, 3}}, {20, []uint32{4, 5, 6}}} {
			tuples = append(tuples, collect.TraceTuple{
				ECID: node.coll, Op: paths.OpWrite, Seq: seq,
				Start: base + 100, End: base + 200,
			})
			for i, id := range node.ecids {
				jit := rng.Int63n(90)
				tuples = append(tuples, collect.TraceTuple{
					ECID: id, Op: paths.OpWrite, Seq: seq,
					Start: base + jit + int64(i), End: base + 300 + jit,
				})
			}
		}
	}
	rng.Shuffle(len(tuples), func(i, j int) {
		if d := i - j; d < 10 && d > -10 {
			tuples[i], tuples[j] = tuples[j], tuples[i]
		}
	})
	return tuples
}

func encodeBatch(ts []collect.TraceTuple) []byte {
	buf := make([]byte, len(ts)*collect.TupleSize)
	for i := range ts {
		ts[i].EncodeTo(buf[i*collect.TupleSize:])
	}
	return buf
}

// snapshotFromStream builds a nontrivial checkpoint by running the
// shadow (and a query engine) over a prefix of the test stream.
func snapshotFromStream(t testing.TB, n int) Checkpoint {
	t.Helper()
	rep, err := archive.NewReplay(testInfos(), 16)
	if err != nil {
		t.Fatal(err)
	}
	eng := query.NewEngine(nil)
	eng.SetExpected(8)
	for _, src := range []string{
		"alert when count() > 3 window 2us",
		"alert when count() > 0 by ecid window 1us for 2 rounds",
	} {
		st, err := query.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Register(st); err != nil {
			t.Fatal(err)
		}
	}
	for _, tu := range testStream(40)[:n] {
		rep.Feed(tu)
		if err := eng.Offer([]collect.TraceTuple{tu}); err != nil {
			t.Fatal(err)
		}
	}
	la, stats := rep.State()
	return Checkpoint{
		Seq: 7, At: 123456,
		Cursor:    archive.Cursor{Tuples: uint64(n), Segment: 3, SegTuples: 17},
		LA:        la,
		Stats:     stats,
		HasEngine: true,
		Engine:    eng.State(),
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	check := func(name string, cp Checkpoint) {
		t.Helper()
		got, err := Decode(Encode(cp))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, cp) {
			t.Fatalf("%s: round-trip diverged:\n got %+v\nwant %+v", name, got, cp)
		}
	}
	for _, n := range []int{0, 37, 151, 320} {
		cp := snapshotFromStream(t, n)
		check(fmt.Sprintf("n=%d", n), cp)
		// Without the engine section too (recorder without queries).
		cp.HasEngine = false
		cp.Engine = query.EngineState{}
		check(fmt.Sprintf("n=%d no-engine", n), cp)
	}
	// Empty lists at every level: list is the one place a zero count is
	// handled, and each must read back as nil beside non-empty siblings.
	check("nothing at all", Checkpoint{})
	check("nothing at all, engine section", Checkpoint{HasEngine: true})
	tu := collect.TraceTuple{ECID: 1, Op: paths.OpWrite, Seq: 9, Start: 5, End: 8}
	check("empty inner lists", Checkpoint{
		Seq: 2, At: 5, Cursor: archive.Cursor{Tuples: 1},
		LA: monitor.LastArrivalState{
			Fed: 1,
			Joins: []monitor.NamedLBJoinState{
				{Node: "idle", Join: monitor.LBJoinState{K: 2, MaxPending: 8}}, // no pending rounds
				{Node: "open", Join: monitor.LBJoinState{K: 2, MaxPending: 8, Pending: []monitor.LBJoinRoundState{
					{Seq: 9}, // a round with no contributor yet
					{Seq: 10, Contribs: []analysis.ContribState{{ID: 1, Tuple: tu}}},
				}}},
			},
		},
		Stats: monitor.StatsState{Nodes: []monitor.StatsNodeState{
			{NodeID: 10, Joiner: analysis.JoinerState{K: 2, MaxPending: 8}}, // no pending rounds, five empty rings
			{NodeID: 20, Rounds: 1,
				Joiner: analysis.JoinerState{K: 2, MaxPending: 8, Pending: []analysis.RoundState{{Seq: 9, HaveColl: true, Collective: tu}}},
				Up:     analysis.StreamState{N: 1, Mean: 3, Min: 3, Max: 3, Window: 4, Ring: []float64{3}}},
		}},
		HasEngine: true,
		Engine: query.EngineState{Expected: 2, Queries: []query.StandingState{
			{Hash: 1}, // no streaks, nothing fired
			{Hash: 2, Anchored: true, Fired: []uint16{7}},
			{Hash: 3, Streak: []query.GroupStreak{{Group: 7, Count: 2}}},
		}},
	})
}

// TestEncodeCanonical: two identical states encode bit-identically —
// the property that lets the chaos matrix compare recovered state by
// re-checkpointing it.
func TestEncodeCanonical(t *testing.T) {
	a := Encode(snapshotFromStream(t, 151))
	b := Encode(snapshotFromStream(t, 151))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical snapshots encoded differently")
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	frame := Encode(snapshotFromStream(t, 80))
	// Every truncation — torn writes — must be rejected, not panic.
	for i := 0; i < len(frame); i++ {
		if _, err := Decode(frame[:i]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", i)
		}
	}
	// Every single-byte corruption must be rejected (one of the CRCs
	// covers every byte of the frame).
	for i := 0; i < len(frame); i++ {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		if _, err := Decode(bad); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
	}
}

// TestCheckpointRecoveryEquivalence is the tentpole proof at package
// level: a shadow restored from the newest checkpoint and fed only the
// archive suffix after its cursor ends byte-identical to a full replay
// of the whole archive — and the suffix is a small fraction of the
// archive.
func TestCheckpointRecoveryEquivalence(t *testing.T) {
	t.Run("columnar", func(t *testing.T) {
		dir := t.TempDir()
		w, err := archive.Create(archive.Options{Dir: dir, SegmentBytes: 2000, BlockTuples: 16})
		if err != nil {
			t.Fatal(err)
		}
		infos := testInfos()
		ck, err := New(w, w, nil, infos, Config{EveryTuples: 64})
		if err != nil {
			t.Fatal(err)
		}
		tuples := testStream(60)
		for i := 0; i < len(tuples); i += 24 {
			end := i + 24
			if end > len(tuples) {
				end = len(tuples)
			}
			if err := ck.AppendRaw(encodeBatch(tuples[i:end])); err != nil {
				t.Fatal(err)
			}
		}
		if err := ck.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		cks := ck.Stats()
		if cks.Written < 4 {
			t.Fatalf("only %d checkpoints written", cks.Written)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		entries, err := List(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 3 {
			t.Fatalf("chain holds %d entries, want pruned to 3", len(entries))
		}
		cp, info, ok := LoadNewest(dir)
		if !ok || info.Skipped != 0 {
			t.Fatalf("LoadNewest ok=%v info=%+v", ok, info)
		}
		if cp.Seq != cks.Seq {
			t.Fatalf("newest checkpoint seq %d, want %d", cp.Seq, cks.Seq)
		}

		r, err := archive.OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		full, _, err := archive.ReplayLastArrival(r, infos, archive.Query{})
		if err != nil {
			t.Fatal(err)
		}
		rep := restored(t, infos, cp)
		scan, err := r.ScanFrom(cp.Cursor, archive.Query{}, func(tu collect.TraceTuple) bool {
			rep.Feed(tu)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if scan.TuplesSkipped != cp.Cursor.Tuples {
			t.Fatalf("suffix scan skipped %d tuples, cursor covers %d", scan.TuplesSkipped, cp.Cursor.Tuples)
		}

		sameState(t, "checkpoint+suffix", rep, full)
		if rep.Lost() != 0 || full.Lost() != 0 {
			t.Fatalf("lost rounds: fast %d full %d", rep.Lost(), full.Lost())
		}
	})
}

// TestCheckpointerCrashFallsBack: an injected crash mid-checkpoint-write
// leaves a torn chain head; the checkpointer goes sticky-dead, recovery
// skips the torn frame, falls back to the previous checkpoint, and
// still reconstructs exactly the full-replay state.
func TestCheckpointerCrashFallsBack(t *testing.T) {
	dir := t.TempDir()
	cps := &archive.CrashPoints{Seed: 5, Specs: []archive.CrashSpec{{Site: archive.CrashCheckpoint, Count: 2}}}
	w, err := archive.Create(archive.Options{Dir: dir, SegmentBytes: 4000, BlockTuples: 16})
	if err != nil {
		t.Fatal(err)
	}
	infos := testInfos()
	ck, err := New(w, w, nil, infos, Config{EveryTuples: 48, CrashPoints: cps})
	if err != nil {
		t.Fatal(err)
	}
	tuples := testStream(60)
	var crashErr error
	for i := 0; i < len(tuples) && crashErr == nil; i += 16 {
		end := i + 16
		if end > len(tuples) {
			end = len(tuples)
		}
		crashErr = ck.AppendRaw(encodeBatch(tuples[i:end]))
	}
	if !errors.Is(crashErr, archive.ErrInjectedCrash) {
		t.Fatalf("crash did not fire: %v", crashErr)
	}
	if err := ck.AppendRaw(encodeBatch(tuples[:4])); !errors.Is(err, archive.ErrInjectedCrash) {
		t.Fatalf("checkpointer not sticky-dead after crash: %v", err)
	}
	if got := cps.Fired(); len(got) != 1 || got[0] != archive.CrashCheckpoint {
		t.Fatalf("fired sites %v", got)
	}
	// The process died: the writer is abandoned as-is. A reopen models
	// the recovery-side writer takeover (torn-tail truncation).
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	cp, info, ok := LoadNewest(dir)
	if !ok {
		t.Fatal("no valid checkpoint survived")
	}
	if info.Skipped != 1 || cp.Seq != 1 {
		t.Fatalf("expected fallback past 1 torn frame to seq 1; got skipped=%d seq=%d", info.Skipped, cp.Seq)
	}

	r, err := archive.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	full, _, err := archive.ReplayLastArrival(r, infos, archive.Query{})
	if err != nil {
		t.Fatal(err)
	}
	rep := restored(t, infos, cp)
	if _, err := r.ScanFrom(cp.Cursor, archive.Query{}, func(tu collect.TraceTuple) bool {
		rep.Feed(tu)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sameState(t, "fallback recovery", rep, full)
}

// TestRaggedBatchReachesShadow: a batch that ends mid-tuple is archived
// up to the tear, so the shadow must fold it up to the tear too. The
// checkpointer used to return at the writer's error without folding or
// counting those tuples: the next frame's cursor covered them while its
// shadow had never seen them, and checkpoint plus suffix diverged from
// full replay. Checked over the writer itself and behind a raw-only
// shim, the two ways a batch reaches it.
func TestRaggedBatchReachesShadow(t *testing.T) {
	infos := testInfos()
	tuples := testStream(60)
	for _, shim := range []bool{false, true} {
		t.Run(fmt.Sprintf("shim=%v", shim), func(t *testing.T) {
			dir := t.TempDir()
			w, err := archive.Create(archive.Options{Dir: dir, BlockTuples: 16})
			if err != nil {
				t.Fatal(err)
			}
			var inner query.Sink = w
			if shim {
				inner = rawOnly{w}
			}
			ck, err := New(w, inner, nil, infos, Config{EveryTuples: math.MaxUint64})
			if err != nil {
				t.Fatal(err)
			}
			err = ck.AppendRaw(append(encodeBatch(tuples[:160]), 1, 2, 3))
			var pe *collect.PartialTupleError
			if !errors.As(err, &pe) || pe.Offset != 160*collect.TupleSize || pe.Remaining != 3 {
				t.Fatalf("ragged batch: err %v, want the tear after 160 tuples", err)
			}
			if err := ck.AppendRaw(encodeBatch(tuples[160:320])); err != nil {
				t.Fatal(err)
			}
			if err := ck.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			cp, _, ok := LoadNewest(dir)
			if !ok || cp.Cursor.Tuples != 320 {
				t.Fatalf("frame ok=%v covers %d tuples, want 320", ok, cp.Cursor.Tuples)
			}
			r, err := archive.OpenReader(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			full, _, err := archive.ReplayLastArrival(r, infos, archive.Query{})
			if err != nil {
				t.Fatal(err)
			}
			rep := restored(t, infos, cp)
			if _, err := r.ScanFrom(cp.Cursor, archive.Query{}, func(tu collect.TraceTuple) bool {
				rep.Feed(tu)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			sameState(t, "checkpoint+suffix", rep, full)
		})
	}
}

// TestForwardTakesTuplesOnlyIntoTheWriter: the checkpointer hands its
// decoded batch on only to the chains it knows end at its writer — the
// writer itself, or the engine over it — and the bytes to anything else,
// so no shim in a chain is ever stepped over.
func TestForwardTakesTuplesOnlyIntoTheWriter(t *testing.T) {
	w, err := archive.Create(archive.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	overW, overShim := query.NewEngine(w), query.NewEngine(rawOnly{w})
	for _, tc := range []struct {
		name   string
		inner  query.Sink
		engine *query.Engine
		direct bool
		eval   *query.Engine
	}{
		{"writer", w, nil, true, nil},
		{"engine", overW, overW, true, overW},
		{"shimmed-writer", rawOnly{w}, nil, false, nil},
		{"shimmed-engine", rawOnly{overW}, overW, false, nil},
		{"engine-over-shim", overShim, overShim, false, nil},
	} {
		ck, err := New(w, tc.inner, tc.engine, testInfos(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		if ck.direct != tc.direct || ck.eval != tc.eval {
			t.Errorf("%s: direct %v, evaluates %p; want %v, %p", tc.name, ck.direct, ck.eval, tc.direct, tc.eval)
		}
	}
}

// restored is a replay over infos restored from cp, as recovery builds
// one.
func restored(t *testing.T, infos []archive.CollectorInfo, cp Checkpoint) *monitor.Replay {
	t.Helper()
	rep, err := archive.NewReplay(infos, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Restore(cp.LA, cp.Stats); err != nil {
		t.Fatal(err)
	}
	return rep
}

// sameState fails unless two replays snapshot to the same pair.
func sameState(t *testing.T, what string, got, want *monitor.Replay) {
	t.Helper()
	gla, gst := got.State()
	wla, wst := want.State()
	if !reflect.DeepEqual(gla, wla) {
		t.Fatalf("%s: load-balance state diverged from full replay", what)
	}
	if !reflect.DeepEqual(gst, wst) {
		t.Fatalf("%s: statistics state diverged from full replay", what)
	}
}

// TestReopenedDirectoryContinuesChain: a checkpointer over a directory
// that already holds a chain numbers on from its newest entry. Starting
// again at 1 beside an old 2/3/4 made every new frame the chain's oldest
// — the one prune deletes — so recovery stayed pinned to the stale
// frame while its suffix grew without bound.
func TestReopenedDirectoryContinuesChain(t *testing.T) {
	dir := t.TempDir()
	infos := testInfos()
	tuples := testStream(60)
	session := func(tuples []collect.TraceTuple, frames int) Stats {
		t.Helper()
		w, err := archive.Create(archive.Options{Dir: dir, SegmentBytes: 4000, BlockTuples: 16})
		if err != nil {
			t.Fatal(err)
		}
		ck, err := New(w, w, nil, infos, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < frames; i++ {
			if err := ck.AppendRaw(encodeBatch(tuples[i*8 : i*8+8])); err != nil {
				t.Fatal(err)
			}
			if err := ck.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return ck.Stats()
	}
	session(tuples, 4)
	last := session(tuples[32:], 2)
	if last.Seq != 6 || last.Written != 2 {
		t.Fatalf("second session ended at seq %d after %d writes, want 6 after 2", last.Seq, last.Written)
	}
	entries, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint32
	for _, e := range entries {
		seqs = append(seqs, e.Seq)
	}
	if !reflect.DeepEqual(seqs, []uint32{4, 5, 6}) {
		t.Fatalf("chain holds %v, want the newest three [4 5 6]", seqs)
	}
	cp, info, ok := LoadNewest(dir)
	if !ok || info.Skipped != 0 || cp.Seq != last.Seq {
		t.Fatalf("LoadNewest ok=%v skipped=%d seq=%d, want the last frame written (%d)", ok, info.Skipped, cp.Seq, last.Seq)
	}
	if cp.Cursor.Tuples == 0 {
		t.Fatal("newest frame's cursor does not cover the reopened archive")
	}
}

// TestDecodeRejectsRepeatedSection: a section is walked into the
// checkpoint it belongs to, so a frame may carry each at most once —
// even one whose CRCs vouch for it.
func TestDecodeRejectsRepeatedSection(t *testing.T) {
	frame := Encode(snapshotFromStream(t, 40))
	cursorSec := frame[headerSize : headerSize+6+8+8+4+8]
	bad := append(append([]byte(nil), frame...), cursorSec...)
	binary.LittleEndian.PutUint32(bad[12:16], uint32(len(bad)-headerSize))
	binary.LittleEndian.PutUint32(bad[16:20], crc32.ChecksumIEEE(bad[headerSize:]))
	binary.LittleEndian.PutUint32(bad[20:24], crc32.ChecksumIEEE(bad[0:20]))
	if _, err := Decode(bad); !errors.Is(err, ErrInvalid) {
		t.Fatalf("frame with two cursor sections: err %v, want ErrInvalid", err)
	}
}

// TestLoadNewestAllTorn: when every chain entry is damaged, LoadNewest
// reports no checkpoint — the caller's cue for full replay.
func TestLoadNewestAllTorn(t *testing.T) {
	dir := t.TempDir()
	cp := snapshotFromStream(t, 40)
	for seq := uint32(1); seq <= 2; seq++ {
		cp.Seq = seq
		if err := write(dir, seq, Encode(cp), nil); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := List(dir)
	if err != nil || len(entries) != 2 {
		t.Fatalf("List: %v %v", entries, err)
	}
	for _, e := range entries {
		buf, err := os.ReadFile(e.Path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(e.Path, buf[:len(buf)/3], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, info, ok := LoadNewest(dir); ok || info.Skipped != 2 {
		t.Fatalf("damaged chain yielded a checkpoint (info %+v)", info)
	}
}

func BenchmarkCheckpointEncodeTuples(b *testing.B) {
	ts := make([]collect.TraceTuple, 256)
	for i := range ts {
		ts[i] = collect.TraceTuple{ECID: uint32(i), Op: paths.OpWrite, Seq: uint32(i), Start: int64(i), End: int64(i + 5)}
	}
	dst := make([]byte, len(ts)*collect.TupleSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encodeTuples(dst, ts)
	}
}

// TestGoldenFrame pins the on-disk frame across refactors of the
// shadows and of the codec, in both header-flag shapes:
// testdata/frame-151.eckpt is Encode(snapshotFromStream(t, 151)) as
// PR 17's map-and-sort joins and mirrored median windows produced it,
// frame-151-lean.eckpt the same snapshot without its engine section as
// PR 19's size/encode/decode triples wrote it. Whatever folds tuples and
// walks sections now must encode the same bytes — checkpoints written
// before and after are interchangeable.
func TestGoldenFrame(t *testing.T) {
	full := snapshotFromStream(t, 151)
	lean := full
	lean.HasEngine, lean.Engine = false, query.EngineState{}
	for _, g := range []struct {
		file string
		cp   Checkpoint
	}{{"testdata/frame-151.eckpt", full}, {"testdata/frame-151-lean.eckpt", lean}} {
		want, err := os.ReadFile(g.file)
		if err != nil {
			t.Fatal(err)
		}
		if got := Encode(g.cp); !bytes.Equal(got, want) {
			t.Errorf("%s: frame drifted from the golden: %d bytes, golden %d", g.file, len(got), len(want))
		}
		if got, err := Decode(want); err != nil || !reflect.DeepEqual(got, g.cp) {
			t.Errorf("%s: golden does not decode to the snapshot (err %v)", g.file, err)
		}
	}
}

// BenchmarkCheckpointEncodeFrame is the zero-alloc gate of the
// append-mode codec: the golden-frame checkpoint encoded warm through a
// kept codec, as a checkpointer encodes every frame of a run.
func BenchmarkCheckpointEncodeFrame(b *testing.B) {
	cp := snapshotFromStream(b, 151)
	var c encoder
	b.SetBytes(int64(len(c.encode(cp))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.encode(cp)
	}
}

// treeInfos is a two-level tree's port set in collector metadata: a
// root joining rootFanin threads and children child nodes joining eight
// threads each, one collective collector per node.
func treeInfos(rootFanin, children int) []archive.CollectorInfo {
	var infos []archive.CollectorInfo
	id := uint32(1)
	node := func(name string, fanin int) {
		infos = append(infos, archive.CollectorInfo{ID: id, Role: collect.RoleCollective, Tree: "T", Node: name, Contributor: -1})
		id++
		for c := 0; c < fanin; c++ {
			infos = append(infos, archive.CollectorInfo{ID: id, Role: collect.RoleContributor, Tree: "T", Node: name, Contributor: c})
			id++
		}
	}
	node("root", rootFanin)
	for i := 0; i < children; i++ {
		node(string(rune('a'+i)), 8)
	}
	return infos
}

// treeRounds lays out n complete rounds over infos, numbered from first,
// collector by collector as a scope pull delivers them (so every round
// is pending until the last contributor).
func treeRounds(rng *rand.Rand, infos []archive.CollectorInfo, first uint32, n int) []collect.TraceTuple {
	ts := make([]collect.TraceTuple, 0, n*len(infos))
	for _, in := range infos {
		for r := 0; r < n; r++ {
			seq := first + uint32(r)
			base := int64(seq) * 500_000
			tu := collect.TraceTuple{ECID: in.ID, Op: paths.OpWrite, Seq: seq, Start: base + rng.Int63n(40_000)}
			tu.End = tu.Start + 100_000 + rng.Int63n(40_000)
			if in.Role == collect.RoleCollective {
				tu.Start, tu.End = base+50_000, base+90_000
			}
			ts = append(ts, tu)
		}
	}
	return ts
}

// foldFixture is batches of 64 complete rounds (treeRounds) over a tree
// of rootFanin and children (treeInfos).
func foldFixture(rounds, rootFanin, children int) ([]archive.CollectorInfo, [][]byte) {
	infos := treeInfos(rootFanin, children)
	rng := rand.New(rand.NewSource(17))
	var batches [][]byte
	const perBatch = 64
	for first := 0; first < rounds; first += perBatch {
		batches = append(batches, encodeBatch(treeRounds(rng, infos, uint32(first+1), perBatch)))
	}
	return infos, batches
}

// BenchmarkCheckpointFold is the zero-alloc gate of the fold job: warm
// shadow, then the Feed loop a job runs over a decoded batch, one op per
// batch of 64 complete rounds over an 8-way tree (a root joining seven
// child nodes and a thread of its own: 72 collectors, 4608 tuples). The
// cadence write is excluded — it allocates the snapshot by design.
func BenchmarkCheckpointFold(b *testing.B) {
	infos, raw := foldFixture(64*16, 8, 7)
	batches := make([][]collect.TraceTuple, len(raw))
	for i := range raw {
		batches[i], _ = collect.DecodeAppend(nil, raw[i])
	}
	dir := b.TempDir()
	w, err := archive.Create(archive.Options{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	ck, err := New(w, w, nil, infos, Config{})
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range batches { // warm: slots pooled, windows full
		ck.fold(batch)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ck.fold(batches[i%len(batches)])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(batches[0])), "ns/tuple")
}

// BenchmarkCheckpointAppendRaw is the zero-alloc gate of the gather
// thread's share of a checkpointed chain: the decode, the fold job's
// launch, the forward and the cadence count, over warm benchmark-shaped
// replies (61 collectors, 64 complete rounds: 3 904 tuples, each reply
// the next 64 rounds, made outside the timer). The chain behind the
// checkpointer is the product's: the writer (lean), or the benchmark's
// three standing alerts in an engine in front of it (alerts); the
// writer never rotates, as opening a segment allocates by design. An
// op is a call and the settling of its job, so allocs/op covers both;
// ns/tuple times the call alone, which the fold job runs beside. The
// cadence never fires, as a frame allocates its snapshot by design.
func BenchmarkCheckpointAppendRaw(b *testing.B) {
	infos := treeInfos(6, 6)
	for _, withAlerts := range []bool{false, true} {
		name := "lean"
		if withAlerts {
			name = "alerts"
		}
		b.Run(name, func(b *testing.B) {
			w, err := archive.Create(archive.Options{Dir: b.TempDir(), SegmentBytes: 1 << 40})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			var inner query.Sink = w
			var eng *query.Engine
			if withAlerts {
				eng = query.NewEngine(inner)
				eng.SetExpected(len(infos))
				for _, src := range []string{
					"alert when p99(latency) > 400us by ecid window 5ms",
					"alert when coverage() < 1.0 for 3 rounds every 1ms",
					"alert when errors() > 0 window 1ms",
				} {
					st, err := query.Parse(src)
					if err != nil {
						b.Fatal(err)
					}
					if err := eng.Register(st); err != nil {
						b.Fatal(err)
					}
				}
				inner = eng
			}
			ck, err := New(w, inner, eng, infos, Config{EveryTuples: math.MaxUint64})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(17))
			var reply []byte
			first := uint32(1)
			next := func() {
				reply = encodeBatch(treeRounds(rng, infos, first, 64))
				first += 64
			}
			for i := 0; i < 16; i++ { // warm: shadows, engine, both batch buffers
				next()
				if err := ck.AppendRaw(reply); err != nil {
					b.Fatal(err)
				}
			}
			if err := ck.Err(); err != nil {
				b.Fatal(err)
			}
			var caller int64 // ns
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				next()
				b.StartTimer()
				t0 := hrtime.Now()
				err := ck.AppendRaw(reply)
				caller += hrtime.Since(t0)
				if err != nil {
					b.Fatal(err)
				}
				if err := ck.Err(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(caller)/float64(b.N)/float64(len(reply)/collect.TupleSize), "ns/tuple")
		})
	}
}

// TestRestoreRejectsOutOfRangeContributor: a frame can pass both CRCs
// and still carry a contributor id that would index past a round slot;
// the restore refuses it — so recovery falls back a rung — for an id
// one past the fan-in and for a negative one, in either half of the
// snapshot.
func TestRestoreRejectsOutOfRangeContributor(t *testing.T) {
	infos := testInfos()
	// After 147 tuples both halves hold a partial round of node "a".
	for _, id := range []int32{3, -1} {
		for half, damage := range map[string]func(*Checkpoint){
			"load-balance": func(cp *Checkpoint) { cp.LA.Joins[0].Join.Pending[0].Contribs[0].ID = id },
			"statistics":   func(cp *Checkpoint) { cp.Stats.Nodes[0].Joiner.Pending[0].Contribs[0].ID = id },
		} {
			cp := snapshotFromStream(t, 147)
			damage(&cp)
			got, err := Decode(Encode(cp))
			if err != nil {
				t.Fatalf("id %d in the %s half: frame did not survive the codec: %v", id, half, err)
			}
			rep, err := archive.NewReplay(infos, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Restore(got.LA, got.Stats); err == nil {
				t.Errorf("id %d in the %s half: shadow restored", id, half)
			}
		}
	}
	restored(t, infos, snapshotFromStream(t, 147)) // the undamaged frame restores
}
