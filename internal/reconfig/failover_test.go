package reconfig

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"eventspace/internal/analysis"
	"eventspace/internal/archive"
	"eventspace/internal/checkpoint"
	"eventspace/internal/collect"
	"eventspace/internal/metrics"
	"eventspace/internal/monitor"
	"eventspace/internal/paths"
	"eventspace/internal/query"
)

// failoverInfos fabricates collector metadata for two 3-contributor
// nodes, mirroring the checkpoint package's test topology.
func failoverInfos() []archive.CollectorInfo {
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

func failoverStream(rounds int) []collect.TraceTuple {
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

func failoverBatch(ts []collect.TraceTuple) []byte {
	buf := make([]byte, len(ts)*collect.TupleSize)
	for i := range ts {
		ts[i].EncodeTo(buf[i*collect.TupleSize:])
	}
	return buf
}

var failoverAlerts = []string{
	"alert when count() > 3 window 2us",
	"alert when count() > 0 by ecid window 1us for 2 rounds",
}

func failoverStmts(t *testing.T) []*query.Stmt {
	t.Helper()
	stmts := make([]*query.Stmt, 0, len(failoverAlerts))
	for _, src := range failoverAlerts {
		st, err := query.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		stmts = append(stmts, st)
	}
	return stmts
}

// buildCheckpointedArchive records rounds of the test stream through
// the real recorder sink chain — checkpointer (one frame per every data
// tuples) in front of an optional query engine in front of the writer —
// and abandons it the way a crash does: a pruned checkpoint chain next
// to the segments and no final checkpoint, so recovery replays a real
// suffix, not an empty one.
func buildCheckpointedArchive(t *testing.T, dir string, rounds int, every uint64, withEngine bool) {
	t.Helper()
	w, err := archive.Create(archive.Options{Dir: dir, SegmentBytes: 2000, BlockTuples: 16})
	if err != nil {
		t.Fatal(err)
	}
	infos := failoverInfos()
	if err := archive.WriteMeta(dir, infos); err != nil {
		t.Fatal(err)
	}
	var inner query.Sink = w
	var eng *query.Engine
	if withEngine {
		eng = query.NewEngine(w)
		eng.SetExpected(8)
		for _, st := range failoverStmts(t) {
			if err := eng.Register(st); err != nil {
				t.Fatal(err)
			}
		}
		inner = eng
	}
	ck, err := checkpoint.New(w, inner, eng, infos, checkpoint.Config{EveryTuples: every})
	if err != nil {
		t.Fatal(err)
	}
	tuples := failoverStream(rounds)
	for i := 0; i < len(tuples); i += 24 {
		end := i + 24
		if end > len(tuples) {
			end = len(tuples)
		}
		if err := ck.AppendRaw(failoverBatch(tuples[i:end])); err != nil {
			t.Fatal(err)
		}
	}
	// Settle the last frame (its mark lands in the writer) before sealing.
	if err := ck.Err(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// reference replays dir through the plain archive joins — the ground
// truth every recovery rung must hand off — and returns the archive's
// segment byte total alongside.
func reference(t *testing.T, dir string) (*monitor.Replay, uint64) {
	t.Helper()
	r, err := archive.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	infos := failoverInfos()
	rep, _, err := archive.ReplayLastArrival(r, infos, archive.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost() != 0 {
		t.Fatalf("reference replay lost %d rounds", rep.Lost())
	}
	var total uint64
	for _, s := range r.Segments() {
		total += uint64(s.Bytes)
	}
	return rep, total
}

// matchesReference checks a handoff against the reference joins.
func matchesReference(t *testing.T, st *FailoverState, rep *monitor.Replay) {
	t.Helper()
	if want := rep.Weighted().Total(); st.RoundsRecovered != want || want == 0 {
		t.Fatalf("rounds recovered %d, want %d", st.RoundsRecovered, want)
	}
	weightedEqual(t, st.Resume.Weighted, rep.Weighted())
	if want := rep.Resume().Floors; !reflect.DeepEqual(st.Resume.Floors, want) {
		t.Fatalf("floors diverged: %v vs %v", st.Resume.Floors, want)
	}
	statsEqual(t, st.Stats, rep.Tree())
}

func weightedEqual(t *testing.T, got, want *monitor.WeightedTree) {
	t.Helper()
	gn, wn := got.Nodes(), want.Nodes()
	sort.Strings(gn)
	sort.Strings(wn)
	if !reflect.DeepEqual(gn, wn) {
		t.Fatalf("weighted nodes %v, want %v", gn, wn)
	}
	for _, node := range wn {
		if !reflect.DeepEqual(got.Counts(node), want.Counts(node)) {
			t.Fatalf("weighted counts for %s diverged:\n got %v\nwant %v", node, got.Counts(node), want.Counts(node))
		}
	}
}

func statsEqual(t *testing.T, got, want *monitor.AnalysisTree) {
	t.Helper()
	gids, wids := got.IDs(), want.IDs()
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	sort.Slice(wids, func(i, j int) bool { return wids[i] < wids[j] })
	if !reflect.DeepEqual(gids, wids) {
		t.Fatalf("stats tree ids %v, want %v", gids, wids)
	}
	kinds := []int{analysis.KindDown, analysis.KindUp, analysis.KindTotal, analysis.KindArrivalWait, analysis.KindDepartureWait}
	for _, id := range wids {
		for _, kind := range kinds {
			w, wok := want.Get(id, kind)
			g, gok := got.Get(id, kind)
			if gok != wok || g != w {
				t.Fatalf("stats record (%d,%d): got %v,%v want %v,%v", id, kind, g, gok, w, wok)
			}
		}
	}
}

// TestRecoverFrontEndMatchesRebuild: the checkpointed rung must hand
// off exactly the state the plain archive joins compute — while reading
// only the archive suffix behind the newest checkpoint, at least 5x
// fewer bytes than the archive holds at 3 200 rounds: the bound that
// makes recovery time a function of the checkpoint cadence, not of
// archive size.
func TestRecoverFrontEndMatchesRebuild(t *testing.T) {
	t.Run("columnar", func(t *testing.T) {
		dir := t.TempDir()
		buildCheckpointedArchive(t, dir, 3200, 512, false)
		want, total := reference(t, dir)
		rc, err := RecoverFrontEnd(dir, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !rc.Checkpointed || rc.CheckpointSeq == 0 || rc.Fallbacks != 0 {
			t.Fatalf("expected clean checkpointed recovery, got %+v", rc)
		}
		if rc.ChainEntries != 3 {
			t.Fatalf("chain entries %d, want pruned to 3", rc.ChainEntries)
		}
		if rc.TuplesSkipped == 0 {
			t.Fatal("checkpointed recovery skipped no tuples — fast path not taken")
		}
		if rc.BytesReplayed == 0 || rc.BytesReplayed*5 > total {
			t.Fatalf("checkpointed recovery replayed %d of the archive's %d bytes, want at least 5x fewer",
				rc.BytesReplayed, total)
		}
		matchesReference(t, rc, want)
	})
}

// TestRecoverFrontEndEngineResumesMidStreak: with standing statements,
// recovery restores the query engine from the checkpoint and advances
// it over the suffix — ending in exactly the state the chain-less rung
// reaches by replaying the whole archive, streaks and dedup memory
// included. The chain-less rung feeds joins, statistics and engine from
// one pass: a single scan, reading each segment byte once.
func TestRecoverFrontEndEngineResumesMidStreak(t *testing.T) {
	dir := t.TempDir()
	buildCheckpointedArchive(t, dir, 60, 64, true)
	want, total := reference(t, dir)
	stmts := failoverStmts(t)
	rc, err := RecoverFrontEnd(dir, nil, stmts)
	if err != nil {
		t.Fatal(err)
	}
	if !rc.Checkpointed {
		t.Fatalf("expected checkpointed recovery, got %+v", rc)
	}
	if rc.Engine == nil {
		t.Fatal("no engine state recovered")
	}
	matchesReference(t, rc, want)
	// Destroy the chain: the same recovery must now take the chain-less
	// rung and still produce the identical engine state.
	entries, err := checkpoint.List(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("chain: %v %v", entries, err)
	}
	for _, e := range entries {
		if err := os.Remove(e.Path); err != nil {
			t.Fatal(err)
		}
	}
	reg := metrics.New()
	full, err := RecoverFrontEnd(dir, reg, stmts)
	if err != nil {
		t.Fatal(err)
	}
	if full.Checkpointed || full.ChainEntries != 0 {
		t.Fatalf("expected the chain-less rung, got %+v", full)
	}
	if full.Engine == nil {
		t.Fatal("chain-less rung produced no engine state")
	}
	if !reflect.DeepEqual(*rc.Engine, *full.Engine) {
		t.Fatalf("recovered engine state diverged from the chain-less rung:\n got %+v\nwant %+v", *rc.Engine, *full.Engine)
	}
	matchesReference(t, full, want)
	if full.BytesReplayed != total {
		t.Fatalf("chain-less rung replayed %d bytes, the archive holds %d", full.BytesReplayed, total)
	}
	scans := uint64(0)
	for _, op := range reg.Snapshot().ByKind(metrics.KindArchive) {
		if op.Name == "archive-scan("+dir+")" {
			scans += op.Ops
		}
	}
	if scans != 1 {
		t.Fatalf("chain-less rung scanned the archive %d times, want 1", scans)
	}
}

// TestRecoverFrontEndFallbackLadder: a torn chain head falls back to
// the previous checkpoint; a fully torn chain falls back to the
// chain-less rung. Both reproduce the reference state exactly.
func TestRecoverFrontEndFallbackLadder(t *testing.T) {
	dir := t.TempDir()
	buildCheckpointedArchive(t, dir, 60, 64, false)
	want, _ := reference(t, dir)
	entries, err := checkpoint.List(dir)
	if err != nil || len(entries) != 3 {
		t.Fatalf("chain: %v %v", entries, err)
	}
	// Tear the newest frame.
	buf, err := os.ReadFile(entries[2].Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entries[2].Path, buf[:len(buf)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	rc, err := RecoverFrontEnd(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rc.Checkpointed || rc.Fallbacks != 1 || rc.CheckpointSeq != entries[1].Seq {
		t.Fatalf("expected fallback to seq %d, got %+v", entries[1].Seq, rc)
	}
	matchesReference(t, rc, want)

	// Tear the whole chain: the ladder bottoms out at the chain-less rung.
	for _, e := range entries[:2] {
		buf, err := os.ReadFile(e.Path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(e.Path, buf[:len(buf)/3], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rc, err = RecoverFrontEnd(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Checkpointed || rc.Fallbacks != 3 || rc.TuplesSkipped != 0 {
		t.Fatalf("expected the chain-less rung after 3 fallbacks, got %+v", rc)
	}
	if rc.ChainEntries != 3 {
		t.Fatalf("chain entries %d, want 3 (torn frames still on disk)", rc.ChainEntries)
	}
	matchesReference(t, rc, want)
}

// TestFailoverSurfacesRepairContext is the regression test for the
// silently-discarded repair context: rebuilding from a crash-damaged
// archive (torn tail from an injected block-flush crash, plus a
// header-less segment file left by a crashed rotation) must surface the
// truncation, the skipped file, and the reader's close error in the
// handoff instead of dropping them on the floor.
func TestFailoverSurfacesRepairContext(t *testing.T) {
	dir := t.TempDir()
	cps := &archive.CrashPoints{Seed: 9, Specs: []archive.CrashSpec{{Site: archive.CrashBlockFlush, Count: 3}}}
	w, err := archive.Create(archive.Options{Dir: dir, SegmentBytes: 4000, BlockTuples: 16, CrashPoints: cps})
	if err != nil {
		t.Fatal(err)
	}
	infos := failoverInfos()
	if err := archive.WriteMeta(dir, infos); err != nil {
		t.Fatal(err)
	}
	tuples := failoverStream(40)
	var crashErr error
	for i := 0; i < len(tuples) && crashErr == nil; i += 16 {
		end := i + 16
		if end > len(tuples) {
			end = len(tuples)
		}
		if crashErr = w.Append(tuples[i:end]); crashErr == nil {
			crashErr = w.Flush()
		}
	}
	if !errors.Is(crashErr, archive.ErrInjectedCrash) {
		t.Fatalf("crash did not fire: %v", crashErr)
	}
	// A crashed rotation's leftover: a segment file too short to hold a
	// header. Readers must skip it and say so.
	junk := filepath.Join(dir, "seg-00009999.eseg")
	if err := os.WriteFile(junk, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := RecoverFrontEnd(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.TornSegments == 0 || st.RepairedBytes == 0 {
		t.Fatalf("torn tail not surfaced: %+v", st)
	}
	found := false
	for _, f := range st.SkippedFiles {
		if filepath.Base(f) == filepath.Base(junk) {
			found = true
		}
	}
	if !found {
		t.Fatalf("skipped file not surfaced: %v", st.SkippedFiles)
	}
	if st.CloseErr == nil {
		t.Fatal("reader close error (skipped-file report) not surfaced")
	}
	if st.RoundsRecovered == 0 {
		t.Fatal("damaged archive recovered no rounds at all")
	}

	// The damage costs tuples, never correctness: the handoff is what
	// the plain joins compute over the surviving blocks.
	r, err := archive.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := archive.ReplayLastArrival(r, infos, archive.Query{})
	if err != nil {
		t.Fatal(err)
	}
	weightedEqual(t, st.Resume.Weighted, rep.Weighted())
}

// TestBadMetaRefused hand-writes sidecars no live tree could have
// written and requires every replay entry point to refuse them rather
// than misread the archive: a contributor with a negative index (which
// the statistics join once took for the node's collective), an ECID
// listed twice (whose fan-in count then waited for a contributor that
// never arrives), two contributors of one node at one index, an index
// that leaves a gap below the fan-in, and a node with two collectives.
func TestBadMetaRefused(t *testing.T) {
	line := func(id uint32, role collect.Role, contributor int, node string) string {
		return fmt.Sprintf("%d\t%d\t%d\t%q\t%q\t%q\n", id, uint8(role), contributor, "T", node, fmt.Sprint("ec", id))
	}
	// Node "a" as failoverInfos lists it, plus one bad line.
	good := line(10, collect.RoleCollective, -1, "a") + line(1, collect.RoleContributor, 0, "a") +
		line(2, collect.RoleContributor, 1, "a") + line(3, collect.RoleContributor, 2, "a")
	for name, bad := range map[string]string{
		"negative index":  line(4, collect.RoleContributor, -1, "a"),
		"ECID twice":      line(3, collect.RoleContributor, 3, "a"),
		"index taken":     line(4, collect.RoleContributor, 2, "a"),
		"index gap":       line(4, collect.RoleContributor, 4, "a"),
		"two collectives": line(20, collect.RoleCollective, -1, "a"),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := archive.Create(archive.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(failoverStream(5)); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			for _, meta := range []string{good, good + bad} {
				if err := os.WriteFile(filepath.Join(dir, archive.MetaFileName), []byte(meta), 0o644); err != nil {
					t.Fatal(err)
				}
				infos, err := archive.ReadMeta(dir)
				if err != nil {
					t.Fatal(err)
				}
				r, err := archive.OpenReader(dir)
				if err != nil {
					t.Fatal(err)
				}
				_, _, laErr := archive.ReplayLastArrival(r, infos, archive.Query{})
				_, _, statsErr := archive.ReplayStats(r, infos, archive.Query{}, 0)
				r.Close()
				_, recErr := RecoverFrontEnd(dir, nil, nil)
				if refuse := meta != good; (laErr != nil) != refuse || (statsErr != nil) != refuse || (recErr != nil) != refuse {
					t.Fatalf("bad line %v: ReplayLastArrival %v, ReplayStats %v, RecoverFrontEnd %v", refuse, laErr, statsErr, recErr)
				}
			}
		})
	}
}
