package query

import (
	"testing"

	"eventspace/internal/archive"
	"eventspace/internal/collect"
	"eventspace/internal/paths"
)

// testTuples is the fixture stream the golden corpus and the pushdown
// property test run against: three collectors, mixed ops, a sprinkle of
// errors, stamps spread over 30µs so small segments give the pushdown
// something to skip.
func testTuples() []collect.TraceTuple {
	var out []collect.TraceTuple
	for i := 0; i < 60; i++ {
		op := paths.OpRead
		if i%2 == 1 {
			op = paths.OpWrite
		}
		var ret int16
		if i%10 == 9 {
			ret = -1
		}
		start := int64(i) * 500
		lat := int64(100 + (i%7)*50)
		out = append(out, collect.TraceTuple{
			ECID: uint32(1 + i%3), Op: op, Ret: ret, Seq: uint32(i),
			Start: start, End: start + lat,
		})
	}
	return out
}

// writeFixtureArchive writes the fixture stream into a fresh archive
// and opens a reader over it.
func writeFixtureArchive(t *testing.T, dir string, segmentBytes int64) *archive.Reader {
	t.Helper()
	w, err := archive.Create(archive.Options{Dir: dir, SegmentBytes: segmentBytes, BlockTuples: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range testTuples() {
		if err := w.Append([]collect.TraceTuple{tu}); err != nil {
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
