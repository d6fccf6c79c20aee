package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"eventspace/internal/archive"
	"eventspace/internal/collect"
	"eventspace/internal/paths"
)

// writeTestArchive builds a small archive with tuples at known stamps:
// ten tuples on ECID 1, Start = i microseconds (0..9), plus one alert
// control tuple at 4us. Small segments force several rotations so the
// stamp-range pushdown has segments to skip. The metadata sidecar names
// ECID 1 a contributor, which is all the load-balance replay needs.
func writeTestArchive(t *testing.T, dir string) {
	t.Helper()
	err := archive.WriteMeta(dir, []archive.CollectorInfo{
		{ID: 1, Name: "c-a", Role: collect.RoleContributor, Tree: "T", Node: "a", Contributor: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := archive.Create(archive.Options{Dir: dir, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		start := int64(i) * 1000
		err := w.Append([]collect.TraceTuple{{
			ECID: 1, Op: paths.OpRead, Seq: uint32(i), Start: start, End: start + 100,
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	err = w.Append([]collect.TraceTuple{collect.EncodeAlert(collect.AlertTuple{
		QueryHash: collect.HashName("s"), Group: 1, Seq: 1, At: 4000,
	})})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		var buf bytes.Buffer
		_, _ = io.Copy(&buf, r)
		done <- buf.String()
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if ferr != nil {
		t.Fatalf("command failed: %v\noutput:\n%s", ferr, out)
	}
	return out
}

// TestQuerySelectStarStampRange exercises a stamp-range select *: only
// tuples whose Start falls inside the model-time window are printed, and
// segments wholly outside the window are skipped by the header-index
// pushdown.
func TestQuerySelectStarStampRange(t *testing.T) {
	dir := t.TempDir()
	writeTestArchive(t, dir)

	out := capture(t, func() error {
		return runQuery([]string{"-dir", dir, "-q", "select * where op in (read) and start >= 2000 and start <= 5000"})
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Tuples at 2000, 3000, 4000, 5000 ns plus the trailing stats line.
	if len(lines) != 5 {
		t.Fatalf("query printed %d lines, want 5:\n%s", len(lines), out)
	}
	for _, want := range []string{"start         2000", "start         5000"} {
		if !strings.Contains(out, want) {
			t.Errorf("query output missing %q:\n%s", want, out)
		}
	}
	for _, reject := range []string{"start         1000", "start         6000"} {
		if strings.Contains(out, reject) {
			t.Errorf("query output leaked out-of-range tuple %q:\n%s", reject, out)
		}
	}
	if !strings.Contains(out, "4 tuples matched") {
		t.Errorf("query stats line wrong:\n%s", out)
	}
	// The small segments guarantee at least one was skipped unscanned.
	if strings.Contains(out, "0/") {
		t.Errorf("stamp range skipped no segments (pushdown not engaged):\n%s", out)
	}
}

// TestReplaySinceUntil checks the same window through replay's filter
// flags, and that -since/-until override -min/-max.
func TestReplaySinceUntil(t *testing.T) {
	dir := t.TempDir()
	writeTestArchive(t, dir)

	out := capture(t, func() error {
		return runReplay([]string{"-dir", dir, "-ops", "read", "-since", "2us", "-until", "5us"})
	})
	if !strings.Contains(out, "replayed 4 tuples") || strings.Contains(out, "0/") {
		t.Errorf("replay window [2us,5us] should feed stamps 2000..5000 and skip segments:\n%s", out)
	}
	out = capture(t, func() error {
		return runReplay([]string{"-dir", dir, "-min", "999999", "-since", "7us"})
	})
	if !strings.Contains(out, "replayed 3 tuples") {
		t.Errorf("replay window [7us,∞) should feed stamps 7000..9000:\n%s", out)
	}
}

// TestQueryModeOp checks that control tuples are selectable by op kind
// and rendered with their op name.
func TestQueryModeOp(t *testing.T) {
	dir := t.TempDir()
	writeTestArchive(t, dir)

	out := capture(t, func() error {
		return runQuery([]string{"-dir", dir, "-q", "select * where op in (alert)"})
	})
	if !strings.Contains(out, "alert") || !strings.Contains(out, "1 tuples matched") {
		t.Errorf("alert select should match exactly the control tuple:\n%s", out)
	}
}

// TestNegativeSinceRejected checks flag validation.
func TestNegativeSinceRejected(t *testing.T) {
	dir := t.TempDir()
	writeTestArchive(t, dir)
	if err := runReplay([]string{"-dir", dir, "-since", "-1us"}); err == nil {
		t.Fatal("negative -since accepted")
	}
}

// TestWatchOnce evaluates a standing alert over what the archive holds:
// the data tuples tick it once a microsecond, and it fires on the first
// tick and then holds.
func TestWatchOnce(t *testing.T) {
	dir := t.TempDir()
	writeTestArchive(t, dir)

	out := capture(t, func() error {
		return runWatch([]string{"-dir", dir, "-q", "alert when count() > 0 window 1us", "-once"})
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "#0") || !strings.Contains(lines[0], "1µs") {
		t.Fatalf("watch printed %q, want one alert at 1µs", out)
	}
}
