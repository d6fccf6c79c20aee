package archive

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"eventspace/internal/collect"
	"eventspace/internal/paths"
)

// replyRuns and replyRunLen shape a benchmark reply: one pull drains 61
// collectors of 64 tuples each, so a 3 904-tuple reply is 61 runs in
// which ECID, Op and (almost always) Ret repeat.
const (
	replyRuns   = 61
	replyRunLen = 64
)

// benchReply generates one benchmark-shaped reply: per collector a run
// of consecutive rounds starting at firstSeq, stamps ~500 µs apart with
// seeded jitter, 1‰ Ret=-1. Stamps are synthetic model time.
func benchReply(rng *rand.Rand, firstSeq uint32) []collect.TraceTuple {
	out := make([]collect.TraceTuple, 0, replyRuns*replyRunLen)
	for c := 0; c < replyRuns; c++ {
		op := paths.OpWrite
		if c%8 == 0 {
			op = paths.OpRead
		}
		for i := 0; i < replyRunLen; i++ {
			seq := firstSeq + uint32(i)
			start := int64(seq)*500_000 + int64(c)*1_000 + rng.Int63n(20_000)
			t := collect.TraceTuple{ECID: uint32(1 + c), Op: op, Seq: seq, Start: start, End: start + 100_000 + rng.Int63n(300_000)}
			if rng.Intn(1000) == 0 {
				t.Ret = -1
			}
			out = append(out, t)
		}
	}
	return out
}

// encodeTuples concatenates the tuples' wire encodings, as a pull reply
// carries them.
func encodeTuples(tuples []collect.TraceTuple) []byte {
	out := make([]byte, 0, len(tuples)*collect.TupleSize)
	for i := range tuples {
		out = append(out, tuples[i].Encode()...)
	}
	return out
}

// distinctECIDs is n tuples over exactly `distinct` collectors, each
// appearing first in id order.
func distinctECIDs(n, distinct int) []collect.TraceTuple {
	out := make([]collect.TraceTuple, n)
	for i := range out {
		out[i] = tuple(uint32(1+i%distinct), uint32(i), int64(1000+10*i), int64(1005+10*i))
	}
	return out
}

// goldenSegments are the archives whose bytes testdata/ pins. Each case
// drives a fresh writer over an empty directory and closes it; the
// files under testdata/<name>/ were written by these same calls at the
// commit before the hashless encoder and the in-place drain, and are
// not regenerated from the code under test. They were re-recorded once,
// when version 3 added the block index: each file's blocks are byte for
// byte that first recording's, behind the new header and ahead of the
// index.
var goldenSegments = []struct {
	name  string
	opts  Options
	drive func(t *testing.T, w *Writer)
}{
	{
		// Three benchmark-shaped replies through AppendRaw, control
		// tuples Appended between them and a mid-stream Flush, in
		// segments small enough to rotate several times.
		name: "stream",
		opts: Options{SegmentBytes: 32 << 10},
		drive: func(t *testing.T, w *Writer) {
			rng := rand.New(rand.NewSource(2401))
			step := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			mark := func(seq uint32) []collect.TraceTuple {
				return []collect.TraceTuple{collect.EncodeCheckpointMark(collect.CheckpointMark{Seq: seq, Tuples: uint64(seq) * 3904, At: int64(seq) * 32_000_000})}
			}
			step(w.AppendRaw(encodeTuples(benchReply(rng, 0))))
			step(w.Append(mark(1)))
			step(w.AppendRaw(encodeTuples(benchReply(rng, 64))))
			step(w.Flush())
			step(w.Append(mark(2)))
			step(w.AppendRaw(encodeTuples(benchReply(rng, 128))))
		},
	},
	{
		// 256 distinct ECIDs in one block: the dictionary at its limit.
		name: "dict256",
		opts: Options{BlockTuples: 512},
		drive: func(t *testing.T, w *Writer) {
			if err := w.Append(distinctECIDs(300, 256)); err != nil {
				t.Fatal(err)
			}
		},
	},
	{
		// 257 distinct ECIDs in one block: the raw fallback.
		name: "raw257",
		opts: Options{BlockTuples: 512},
		drive: func(t *testing.T, w *Writer) {
			if err := w.Append(distinctECIDs(300, 257)); err != nil {
				t.Fatal(err)
			}
		},
	},
	{
		name: "one",
		drive: func(t *testing.T, w *Writer) {
			if err := w.AppendRaw(tuple(7, 3, 1000, 1700).Encode()); err != nil {
				t.Fatal(err)
			}
		},
	},
	{
		// Every field at its extremes, overflow stamps included.
		name: "adversarial",
		opts: Options{BlockTuples: 4},
		drive: func(t *testing.T, w *Writer) {
			hi := collect.TraceTuple{
				ECID: math.MaxUint32, Op: paths.OpKind(math.MaxUint16), Ret: math.MinInt16,
				Seq: math.MaxUint32, Start: math.MinInt64, End: math.MaxInt64,
			}
			lo := collect.TraceTuple{Ret: math.MaxInt16, Start: math.MaxInt64, End: math.MinInt64}
			if err := w.Append([]collect.TraceTuple{hi, lo, hi, {}, lo, {}, hi}); err != nil {
				t.Fatal(err)
			}
		},
	},
}

// TestGoldenSegments re-creates every pinned archive with the writer
// under test and compares each file byte for byte, sealed headers
// included: blocks written before and after any encoder or writer
// change are the same blocks.
func TestGoldenSegments(t *testing.T) {
	for _, g := range goldenSegments {
		t.Run(g.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := g.opts
			opts.Dir = dir
			w, err := Create(opts)
			if err != nil {
				t.Fatal(err)
			}
			g.drive(t, w)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			sameDirBytes(t, dir, filepath.Join("testdata", g.name))
		})
	}
}

// sameDirBytes fails unless got and want hold the same file names with
// the same bytes.
func sameDirBytes(t *testing.T, got, want string) {
	t.Helper()
	wantEntries, err := os.ReadDir(want)
	if err != nil {
		t.Fatal(err)
	}
	gotEntries, err := os.ReadDir(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotEntries) != len(wantEntries) {
		t.Fatalf("%s holds %d files, %s holds %d", got, len(gotEntries), want, len(wantEntries))
	}
	for i, e := range wantEntries {
		if gotEntries[i].Name() != e.Name() {
			t.Fatalf("file %d is %s, want %s", i, gotEntries[i].Name(), e.Name())
		}
		wb, err := os.ReadFile(filepath.Join(want, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		gb, err := os.ReadFile(filepath.Join(got, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, wb) {
			t.Errorf("%s differs from %s: %d bytes, want %d", filepath.Join(got, e.Name()), filepath.Join(want, e.Name()), len(gb), len(wb))
		}
	}
}
