package archive

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eventspace/internal/collect"
	"eventspace/internal/metrics"
	"eventspace/internal/monitor"
	"eventspace/internal/paths"
)

// Select materializes the matching tuples in archive order.
func (r *Reader) Select(q Query) ([]collect.TraceTuple, ScanStats, error) {
	var out []collect.TraceTuple
	stats, err := r.Scan(q, func(t collect.TraceTuple) bool {
		out = append(out, t)
		return true
	})
	return out, stats, err
}

// tuple makes a synthetic trace tuple: stamps are synthetic model time,
// never a clock reading.
func tuple(ecid uint32, seq uint32, start, end int64) collect.TraceTuple {
	op := paths.OpWrite
	if seq%2 == 1 {
		op = paths.OpRead
	}
	return collect.TraceTuple{ECID: ecid, Op: op, Ret: int16(seq % 3), Seq: seq, Start: start, End: end}
}

// smallOpts forces frequent blocks and rotations so a few hundred
// tuples cross several segments.
func smallOpts(dir string) Options {
	return Options{Dir: dir, SegmentBytes: 600, BlockTuples: 8}
}

// writeCorpus appends n tuples across ecids collectors and returns them
// in append order.
func writeCorpus(t *testing.T, w *Writer, n int, ecids int) []collect.TraceTuple {
	t.Helper()
	var out []collect.TraceTuple
	for i := 0; i < n; i++ {
		tu := tuple(uint32(1+i%ecids), uint32(i), int64(1000+10*i), int64(1005+10*i))
		out = append(out, tu)
		if err := w.Append([]collect.TraceTuple{tu}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func selectAll(t *testing.T, dir string, q Query) ([]collect.TraceTuple, ScanStats) {
	t.Helper()
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := r.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	return got, stats
}

func sameTuples(t *testing.T, got, want []collect.TraceTuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tuple %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestRoundTripRotations is the round-trip property test: tuples
// written across several rotations come back exactly, in order, under
// the full filter matrix.
func TestRoundTripRotations(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.New()
	opts := smallOpts(dir)
	opts.Metrics = reg
	w, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	corpus := writeCorpus(t, w, 200, 4)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Rotations < 3 {
		t.Fatalf("rotations = %d, want >= 3", st.Rotations)
	}
	if st.TuplesWritten != 200 {
		t.Fatalf("tuples written = %d", st.TuplesWritten)
	}

	// Everything, in append order.
	got, stats := selectAll(t, dir, Query{})
	sameTuples(t, got, corpus)
	if stats.TuplesScanned != 200 || stats.TuplesMatched != 200 {
		t.Fatalf("scan stats %+v", stats)
	}

	// The filter matrix against a brute-force reference.
	queries := []Query{
		{ECIDs: []uint32{2}},
		{Ops: []paths.OpKind{paths.OpRead}},
		{MinStamp: 1500, MaxStamp: 2200},
		{ECIDs: []uint32{1, 3}, Ops: []paths.OpKind{paths.OpWrite}, MinStamp: 1200},
	}
	for qi, q := range queries {
		var want []collect.TraceTuple
		for _, tu := range corpus {
			if q.match(&tu) {
				want = append(want, tu)
			}
		}
		got, _ := selectAll(t, dir, q)
		if len(got) == 0 {
			t.Fatalf("query %d matched nothing", qi)
		}
		sameTuples(t, got, want)
	}

	// Pushdown: a stamp range touching only the first tuples must skip
	// later segments without reading them.
	_, stats = selectAll(t, dir, Query{MinStamp: 0, MaxStamp: 1100})
	if stats.SegmentsSkipped == 0 {
		t.Fatalf("no segments skipped for a narrow stamp range: %+v", stats)
	}
	if stats.SegmentsScanned+stats.SegmentsSkipped != stats.Segments {
		t.Fatalf("scan accounting does not add up: %+v", stats)
	}

	// Self-metrics: archive writes were accounted.
	snap := reg.Snapshot()
	if len(snap.ByKind(metrics.KindArchive)) == 0 {
		t.Fatal("no archive op sites in metrics snapshot")
	}
}

// TestUnsealedSegmentReadable covers querying a live archive: flushed
// blocks of the active (unsealed) segment are visible to a reader.
func TestUnsealedSegmentReadable(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(Options{Dir: dir, BlockTuples: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	corpus := writeCorpus(t, w, 10, 2)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, stats := selectAll(t, dir, Query{})
	sameTuples(t, got, corpus)
	if stats.SegmentsScanned != 1 {
		t.Fatalf("stats %+v", stats)
	}
}

// TestTornTailReopen simulates a crash mid-block-write: reopen must
// truncate the torn tail, lose at most that partial block, and continue
// appending into the same segment.
func TestTornTailReopen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, BlockTuples: 8} // one big segment: the tear hits it
	w, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	corpus := writeCorpus(t, w, 20, 2)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: no Close (header stays unsealed), then a torn
	// block appended to the newest segment.
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listSegments: %v %v", segs, err)
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var enc columnarEncoder
	torn := enc.encodeBlock([]collect.TraceTuple{tuple(9, 999, 1, 2), tuple(9, 1000, 3, 4)})
	if _, err := f.Write(torn[:len(torn)-5]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	st := w2.Stats()
	if st.TornTruncations != 1 {
		t.Fatalf("torn truncations = %d, want 1", st.TornTruncations)
	}
	if st.TuplesRecovered == 0 {
		t.Fatal("no tuples recovered from the reopened segment")
	}
	// The whole pre-crash corpus survived (the torn block held only the
	// never-acknowledged tuples); the writer keeps going where it left.
	more := writeCorpus(t, w2, 10, 2)
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := selectAll(t, dir, Query{})
	sameTuples(t, got, append(append([]collect.TraceTuple(nil), corpus...), more...))
}

// TestTornTailLosesOnlyLastBlock pins the acceptance bound: a tear
// inside the last written block loses that block alone.
func TestTornTailLosesOnlyLastBlock(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(Options{Dir: dir, BlockTuples: 4})
	if err != nil {
		t.Fatal(err)
	}
	corpus := writeCorpus(t, w, 12, 2) // 3 full blocks
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	last := segs[len(segs)-1]
	// Corrupt the final block's payload CRC by flipping its last byte.
	buf, err := os.ReadFile(last.path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xff
	if err := os.WriteFile(last.path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	got, stats := selectAll(t, dir, Query{})
	sameTuples(t, got, corpus[:8]) // blocks 1 and 2 survive, block 3 is the tear
	if stats.TornSegments != 1 {
		t.Fatalf("torn segments = %d, want 1", stats.TornSegments)
	}
}

// TestHeaderlessNewestFile covers a crash between segment create and
// the header write: reopen drops the file and reuses its id.
func TestHeaderlessNewestFile(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(smallOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	writeCorpus(t, w, 30, 2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	nextID := segs[len(segs)-1].id + 1
	stub := filepath.Join(dir, segmentFileName(nextID))
	if err := os.WriteFile(stub, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := Create(smallOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if st := w2.Stats(); st.ActiveSegment != nextID || st.TornTruncations != 1 {
		t.Fatalf("stats after header-less reopen: %+v", st)
	}
}

// retiredHeader forges an intact (magic and CRC valid) sealed header of
// a retired version: 1 (row blocks) or 2 (columnar blocks, no block
// index).
func retiredHeader(id uint32, version uint16) []byte {
	hdr := encodeHeader(segmentHeader{ID: id, Sealed: true})
	binary.LittleEndian.PutUint16(hdr[4:6], version)
	binary.LittleEndian.PutUint32(hdr[60:64], crc32.ChecksumIEEE(hdr[:60]))
	return hdr
}

// TestRetiredVersionRefused: an intact segment of a retired version is
// not crash damage. Reader and writer must both refuse the directory
// with an error naming the version — whether the segment is the newest
// file (which reopen would otherwise drop as a header-less leftover) or
// an older one — and leave the file byte for byte as it was.
func TestRetiredVersionRefused(t *testing.T) {
	for _, version := range []uint16{1, 2} {
		for _, newer := range []bool{false, true} {
			dir := t.TempDir()
			path := filepath.Join(dir, segmentFileName(1))
			if err := os.WriteFile(path, retiredHeader(1, version), 0o644); err != nil {
				t.Fatal(err)
			}
			if newer {
				hdr := encodeHeader(segmentHeader{ID: 2, Sealed: true})
				if err := os.WriteFile(filepath.Join(dir, segmentFileName(2)), hdr, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want := fmt.Sprintf("unsupported segment version %d", version)
			if _, err := OpenReader(dir); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("v%d newer=%v: OpenReader = %v, want %q", version, newer, err, want)
			}
			if _, err := Create(Options{Dir: dir}); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("v%d newer=%v: Create = %v, want %q", version, newer, err, want)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("v%d newer=%v: retired segment gone after refusal: %v", version, newer, err)
			}
			if !bytes.Equal(got, retiredHeader(1, version)) {
				t.Fatalf("v%d newer=%v: retired segment modified by the refusal", version, newer)
			}
		}
	}
}

// TestRetention verifies the total-bytes cap deletes oldest segments
// and the reader sees exactly the retained suffix.
func TestRetention(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts(dir)
	opts.MaxTotalBytes = 2000
	w, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	corpus := writeCorpus(t, w, 400, 4)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.RetentionDeletes == 0 {
		t.Fatal("no retention deletes")
	}
	if st.TotalBytes > 2000+int64(opts.segmentBytes()) {
		t.Fatalf("total bytes %d way past the cap", st.TotalBytes)
	}
	got, _ := selectAll(t, dir, Query{})
	if len(got) == 0 || len(got) >= len(corpus) {
		t.Fatalf("retained %d of %d tuples", len(got), len(corpus))
	}
	// The retained set is exactly the newest suffix, in order.
	sameTuples(t, got, corpus[len(corpus)-len(got):])
}

// TestAppendRawPartial covers the gather-payload path: a payload torn
// mid-tuple keeps its whole prefix and reports the tear offset.
func TestAppendRawPartial(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	a, b := tuple(1, 0, 10, 20), tuple(2, 1, 30, 40)
	payload := append(a.Encode(), b.Encode()...)
	err = w.AppendRaw(payload[:len(payload)-3])
	var pe *collect.PartialTupleError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *collect.PartialTupleError", err)
	}
	if pe.Offset != collect.TupleSize {
		t.Fatalf("tear offset = %d, want %d", pe.Offset, collect.TupleSize)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := selectAll(t, dir, Query{})
	sameTuples(t, got, []collect.TraceTuple{a})
}

// TestWriterClosedAndSticky covers the closed/sticky-error guards.
func TestWriterClosedAndSticky(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := w.Append([]collect.TraceTuple{tuple(1, 0, 1, 2)}); err == nil {
		t.Fatal("append after close accepted")
	}
	if err := w.Flush(); err == nil {
		t.Fatal("flush after close accepted")
	}
}

// TestMetaRoundTrip covers the collector-metadata sidecar codec.
func TestMetaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := []CollectorInfo{
		{ID: 3, Name: "T/n0.c1", Role: collect.RoleContributor, Tree: "T", Node: "n0", Contributor: 1},
		{ID: 1, Name: "T/n0.coll", Role: collect.RoleCollective, Tree: "T", Node: "n0", Contributor: -1},
		{ID: 7, Name: "weird\tname\"x", Role: collect.RoleStubClient, Tree: "T", Node: "l0", Contributor: -1},
	}
	if err := WriteMeta(dir, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("read %d infos", len(out))
	}
	// WriteMeta sorts by id.
	want := []CollectorInfo{in[1], in[0], in[2]}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("info %d = %+v, want %+v", i, out[i], want[i])
		}
	}
	// A missing sidecar is not an error.
	if infos, err := ReadMeta(t.TempDir()); err != nil || infos != nil {
		t.Fatalf("missing sidecar: %v %v", infos, err)
	}
}

// replayMeta is a minimal two-node topology: node n0 has contributors
// ECID 1,2 (collective 10), node n1 has contributors ECID 3,4
// (collective 11).
func replayMeta() []CollectorInfo {
	return []CollectorInfo{
		{ID: 1, Name: "c0", Role: collect.RoleContributor, Tree: "T", Node: "n0", Contributor: 0},
		{ID: 2, Name: "c1", Role: collect.RoleContributor, Tree: "T", Node: "n0", Contributor: 1},
		{ID: 10, Name: "coll0", Role: collect.RoleCollective, Tree: "T", Node: "n0", Contributor: -1},
		{ID: 3, Name: "c2", Role: collect.RoleContributor, Tree: "T", Node: "n1", Contributor: 0},
		{ID: 4, Name: "c3", Role: collect.RoleContributor, Tree: "T", Node: "n1", Contributor: 1},
		{ID: 11, Name: "coll1", Role: collect.RoleCollective, Tree: "T", Node: "n1", Contributor: -1},
	}
}

// replayRound emits one round's tuples for a node: contributors with
// chosen Start stamps, plus the collective tuple.
func replayRound(contribs [2]uint32, coll uint32, seq uint32, starts [2]int64) []collect.TraceTuple {
	base := starts[0]
	if starts[1] > base {
		base = starts[1]
	}
	return []collect.TraceTuple{
		{ECID: contribs[0], Op: paths.OpWrite, Seq: seq, Start: starts[0], End: starts[0] + 5},
		{ECID: contribs[1], Op: paths.OpWrite, Seq: seq, Start: starts[1], End: starts[1] + 5},
		{ECID: coll, Op: paths.OpWrite, Seq: seq, Start: base + 1, End: base + 10},
	}
}

// TestReplayLastArrivalDeterministic archives a synthetic trace and
// checks the offline last-arrival verdicts — including their
// insensitivity to gather order.
func TestReplayLastArrivalDeterministic(t *testing.T) {
	infos := replayMeta()
	var tuples []collect.TraceTuple
	// Node n0: contributor 1 is the straggler in 7 of 10 rounds.
	for i := 0; i < 10; i++ {
		starts := [2]int64{int64(100 + 100*i), int64(150 + 100*i)}
		if i%3 == 0 {
			starts = [2]int64{int64(150 + 100*i), int64(100 + 100*i)}
		}
		tuples = append(tuples, replayRound([2]uint32{1, 2}, 10, uint32(i), starts)...)
	}
	// Node n1: contributor 0 always last.
	for i := 0; i < 5; i++ {
		tuples = append(tuples, replayRound([2]uint32{3, 4}, 11, uint32(i), [2]int64{int64(2000 + 10*i), int64(1995 + 10*i)})...)
	}

	check := func(order []collect.TraceTuple) {
		t.Helper()
		dir := t.TempDir()
		w, err := Create(smallOpts(dir))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(order); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		rep, _, err := ReplayLastArrival(r, infos, Query{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Lost() != 0 {
			t.Fatalf("replay lost %d rounds", rep.Lost())
		}
		wt := rep.Weighted()
		if got := wt.Counts("n0")[1]; got != 6 {
			t.Fatalf("n0 contributor 1 last %d times, want 6", got)
		}
		if got := wt.Counts("n0")[0]; got != 4 {
			t.Fatalf("n0 contributor 0 last %d times, want 4", got)
		}
		if got := wt.Counts("n1")[0]; got != 5 {
			t.Fatalf("n1 contributor 0 last %d times, want 5", got)
		}
		fed, contributors, joined := rep.Fed()
		if fed != uint64(len(order)) || contributors != 30 || joined != 45 {
			t.Fatalf("fed/contributors/joined = %d/%d/%d", fed, contributors, joined)
		}
	}
	check(tuples)
	// A deterministically permuted gather order (rounds interleaved
	// across nodes, contributors reversed) yields identical verdicts.
	perm := make([]collect.TraceTuple, len(tuples))
	copy(perm, tuples)
	for i, j := 0, len(perm)-1; i < j; i, j = i+1, j-1 {
		perm[i], perm[j] = perm[j], perm[i]
	}
	check(perm)
}

// TestReplayStats archives a synthetic trace and checks the offline
// statistics joins complete rounds and publish all five kinds.
func TestReplayStats(t *testing.T) {
	infos := replayMeta()
	dir := t.TempDir()
	w, err := Create(smallOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		round := replayRound([2]uint32{1, 2}, 10, uint32(i), [2]int64{int64(100 + 100*i), int64(150 + 100*i)})
		if err := w.Append(round); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := ReplayStats(r, infos, Query{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The replay reads the archive a batch at a time and never stops
	// early, so it counts what a per-tuple Scan counts.
	for _, q := range []Query{{}, {ECIDs: []uint32{2}}, {MinStamp: 500}} {
		_, got, err := ReplayStats(r, infos, q, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := r.Scan(q, func(collect.TraceTuple) bool { return true })
		if err != nil || got != want {
			t.Fatalf("query %+v: replay scan stats %+v, Scan's %+v (%v)", q, got, want, err)
		}
	}
	if rep.RoundsAnalyzed() != 10 {
		t.Fatalf("rounds analyzed = %d, want 10", rep.RoundsAnalyzed())
	}
	at := rep.Tree()
	for _, kind := range []int{1, 2, 3, 4, 5} { // down..departure-wait
		rec, ok := at.Get(10, kind)
		if !ok || rec.Count == 0 {
			t.Fatalf("kind %d missing from replayed tree (%+v %v)", kind, rec, ok)
		}
	}
	// Replay needs metadata: an empty sidecar is a loud error.
	if _, _, err := ReplayLastArrival(r, nil, Query{}); err == nil {
		t.Fatal("replay without metadata accepted")
	}
	if _, _, err := ReplayStats(r, nil, Query{}, 0); err == nil {
		t.Fatal("stats replay without metadata accepted")
	}
}

// TestLastArrivalReplayValidation covers the roster validation paths.
func TestLastArrivalReplayValidation(t *testing.T) {
	for name, roster := range map[string][]monitor.ReplayNode{
		"no contributors":             {{Name: "n", Collective: 9, HasCollective: true}},
		"node twice":                  {{Name: "n", Contributors: []uint32{1}}, {Name: "n", Contributors: []uint32{2}}},
		"ECID twice":                  {{Name: "n", Contributors: []uint32{1, 1}}},
		"collective is a contributor": {{Name: "n", Contributors: []uint32{1}, Collective: 1, HasCollective: true}},
	} {
		if _, err := monitor.NewReplay(roster, 0); err == nil {
			t.Errorf("%s: roster accepted", name)
		}
	}
	if _, err := monitor.NewReplay([]monitor.ReplayNode{{Name: "n", Contributors: []uint32{1, 2}}}, 0); err != nil {
		t.Fatalf("node without a collective refused: %v", err)
	}
}
