package main

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"eventspace/internal/archive"
	"eventspace/internal/checkpoint"
	"eventspace/internal/collect"
	"eventspace/internal/paths"
)

// writeCheckpointedArchive builds a small archive with collector
// metadata and a real checkpoint chain: two single-contributor nodes,
// checkpointed every 8 tuples by the same checkpointer the recorder
// uses.
func writeCheckpointedArchive(t *testing.T, dir string) {
	t.Helper()
	w, err := archive.Create(archive.Options{Dir: dir, SegmentBytes: 600, BlockTuples: 8})
	if err != nil {
		t.Fatal(err)
	}
	infos := []archive.CollectorInfo{
		{ID: 10, Name: "coll-a", Role: collect.RoleCollective, Tree: "T", Node: "a", Contributor: -1},
		{ID: 1, Name: "c-a", Role: collect.RoleContributor, Tree: "T", Node: "a", Contributor: 0},
		{ID: 20, Name: "coll-b", Role: collect.RoleCollective, Tree: "T", Node: "b", Contributor: -1},
		{ID: 2, Name: "c-b", Role: collect.RoleContributor, Tree: "T", Node: "b", Contributor: 0},
	}
	if err := archive.WriteMeta(dir, infos); err != nil {
		t.Fatal(err)
	}
	ck, err := checkpoint.New(w, w, nil, infos, checkpoint.Config{EveryTuples: 8})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint32(1); seq <= 10; seq++ {
		base := int64(seq) * 1000
		tuples := []collect.TraceTuple{
			{ECID: 1, Op: paths.OpWrite, Seq: seq, Start: base, End: base + 100},
			{ECID: 10, Op: paths.OpWrite, Seq: seq, Start: base + 50, End: base + 150},
			{ECID: 2, Op: paths.OpWrite, Seq: seq, Start: base + 10, End: base + 110},
			{ECID: 20, Op: paths.OpWrite, Seq: seq, Start: base + 60, End: base + 160},
		}
		buf := make([]byte, len(tuples)*collect.TupleSize)
		for i := range tuples {
			tuples[i].EncodeTo(buf[i*collect.TupleSize:])
		}
		if err := ck.AppendRaw(buf); err != nil {
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

// TestInfoCheckpointColumn pins the info table's checkpoint section:
// chain length, newest checkpoint's stamp and cursor, the replay-suffix
// size a recovery would actually read, and the per-frame rows.
func TestInfoCheckpointColumn(t *testing.T) {
	dir := t.TempDir()
	writeCheckpointedArchive(t, dir)

	out := capture(t, func() error {
		return runInfo([]string{"-dir", dir})
	})
	cp, info, ok := checkpoint.LoadNewest(dir)
	if !ok || info.Entries == 0 {
		t.Fatalf("test archive has no checkpoint chain: %+v", info)
	}
	wantHeader := "checkpoints (" // chain length prefix
	if !strings.Contains(out, wantHeader) {
		t.Fatalf("info output missing checkpoint section:\n%s", out)
	}
	for _, want := range []string{
		"newest seq",
		"at stamp",
		"replay suffix",
		" tuples / ",
		"ckpt",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("info checkpoint section missing %q:\n%s", want, out)
		}
	}
	// The replay suffix must be the tuples after the newest cursor, not
	// the whole archive.
	r, err := archive.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	suffix := r.Tuples() - cp.Cursor.Tuples
	if suffix == 0 || suffix >= r.Tuples() {
		t.Fatalf("degenerate suffix %d of %d tuples", suffix, r.Tuples())
	}
	if !strings.Contains(out, "replay suffix") || strings.Contains(out, "replay suffix unreadable") {
		t.Fatalf("suffix not computed:\n%s", out)
	}
	// It reads what a full ScanFrom of the suffix would: the same tuples
	// and bytes, though no column is decoded to count them.
	stats, err := r.ScanFrom(cp.Cursor, archive.Query{}, func(collect.TraceTuple) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("replay suffix %d tuples / %d B\n", r.Tuples()-stats.TuplesSkipped, stats.BytesScanned); !strings.Contains(out, want) {
		t.Fatalf("info output missing %q:\n%s", want, out)
	}

	// A torn chain head is reported, and recovery's fallback is visible.
	entries, err := checkpoint.List(dir)
	if err != nil || len(entries) == 0 {
		t.Fatal(err)
	}
	newest := entries[len(entries)-1]
	buf, err := os.ReadFile(newest.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest.Path, buf[:len(buf)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	out = capture(t, func() error {
		return runInfo([]string{"-dir", dir})
	})
	if !strings.Contains(out, "torn") {
		t.Errorf("torn chain head not marked:\n%s", out)
	}
}

// TestInfoWithoutCheckpoints: archives recorded without a checkpointer
// print no checkpoint section at all.
func TestInfoWithoutCheckpoints(t *testing.T) {
	dir := t.TempDir()
	writeTestArchive(t, dir)
	out := capture(t, func() error {
		return runInfo([]string{"-dir", dir})
	})
	if strings.Contains(out, "checkpoints") {
		t.Fatalf("checkpoint section printed for chainless archive:\n%s", out)
	}
}

// TestInfoStampRangeIsStartRange: a segment's "stamps [lo,hi]" is its
// range of Start stamps — what -since/-until are matched against. The
// test archive's alert tuple carries its query hash in End; the range
// must end at the last data tuple's Start, not reach for the hash.
func TestInfoStampRangeIsStartRange(t *testing.T) {
	dir := t.TempDir()
	writeTestArchive(t, dir)
	out := capture(t, func() error {
		return runInfo([]string{"-dir", dir})
	})
	if !strings.Contains(out, "stamps [0,") || !strings.Contains(out, ",9000]") {
		t.Fatalf("segment stamp ranges should start at 0 and end at 9000:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		i := strings.Index(line, "stamps [")
		if i < 0 {
			continue
		}
		var lo, hi int64
		if _, err := fmt.Sscanf(line[i:], "stamps [%d,%d]", &lo, &hi); err != nil {
			t.Fatalf("unparseable stamp range in %q: %v", line, err)
		}
		if lo < 0 || hi > 9000 || lo > hi {
			t.Errorf("stamp range [%d,%d] outside the archive's Start stamps [0,9000]: %q", lo, hi, line)
		}
	}
}
