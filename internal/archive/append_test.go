package archive

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"eventspace/internal/collect"
)

// benchStream is replies benchmark-shaped replies back to back.
func benchStream(seed int64, replies int) []collect.TraceTuple {
	rng := rand.New(rand.NewSource(seed))
	var out []collect.TraceTuple
	for i := 0; i < replies; i++ {
		out = append(out, benchReply(rng, uint32(i*replyRunLen))...)
	}
	return out
}

// TestAppendRawEqualsPerBlockWrites: however a stream is cut into
// replies, the writer that drains a reply's blocks in place and hands
// them over in one write ends with the files — and after every call
// reports the cursor and the counters — of a reference writer fed one
// block per call, which makes one write per block. The segments are
// small, so replies straddle rotations; the last reply ends mid-tuple.
func TestAppendRawEqualsPerBlockWrites(t *testing.T) {
	stream := benchStream(2404, 3)
	raw := encodeTuples(stream)
	const bt = DefaultBlockTuples
	create := func(dir string) *Writer {
		w, err := Create(Options{Dir: dir, SegmentBytes: 20 << 10})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	for _, reply := range []int{1, 255, 256, 257, 3904, 10000} {
		w, ref := create(t.TempDir()), create(t.TempDir())
		fed := 0 // tuples the reference has been given
		for at := 0; at < len(stream); at += reply {
			end := min(at+reply, len(stream))
			data := raw[at*collect.TupleSize : end*collect.TupleSize]
			last := end == len(stream)
			if last {
				data = append(append([]byte(nil), data...), 0xde, 0xad, 0xbe, 0xef, 0x01)
			}
			err := w.AppendRaw(data)
			var pe *collect.PartialTupleError
			switch {
			case !last && err != nil:
				t.Fatalf("reply %d at %d: %v", reply, at, err)
			case last && (!errors.As(err, &pe) || pe.Offset != (end-at)*collect.TupleSize || pe.Remaining != 5):
				t.Fatalf("reply %d: torn last reply reported %v, want a partial tuple at %d", reply, err, (end-at)*collect.TupleSize)
			}
			for ; fed+bt <= end; fed += bt {
				if err := ref.Append(stream[fed : fed+bt]); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := w.Position(), ref.Position(); got != want {
				t.Fatalf("reply %d: after %d tuples Position = %+v, block by block %+v", reply, end, got, want)
			}
			if got, want := w.Stats(), ref.Stats(); got != want {
				t.Fatalf("reply %d: after %d tuples Stats = %+v, block by block %+v", reply, end, got, want)
			}
		}
		if err := ref.Append(stream[fed:]); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := ref.Close(); err != nil {
			t.Fatal(err)
		}
		if st := w.Stats(); st.Rotations < 3 || st != ref.Stats() {
			t.Fatalf("reply %d: closed Stats = %+v, block by block %+v", reply, st, ref.Stats())
		}
		sameDirBytes(t, w.Dir(), ref.Dir())
	}
}

// TestCrashBlockFlushMidReply arms the k-th block of one multi-block
// reply. The blocks before it were waiting for the same write: they
// must reach the file whole, the torn prefix behind them and nothing
// after, and the dead writer's cursor must cover exactly them.
func TestCrashBlockFlushMidReply(t *testing.T) {
	const k, bt = 5, DefaultBlockTuples
	stream := benchStream(2405, 1)
	dir := t.TempDir()
	cps := &CrashPoints{Seed: 7, Specs: []CrashSpec{{Site: CrashBlockFlush, Count: k}}}
	w, err := Create(Options{Dir: dir, CrashPoints: cps})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendRaw(encodeTuples(stream)); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("AppendRaw = %v, want the injected crash", err)
	}
	durable := uint64((k - 1) * bt)
	if cur := w.Position(); cur.Tuples != durable || cur.SegTuples != durable {
		t.Fatalf("dead writer's cursor = %+v, want %d tuples", cur, durable)
	}
	if st := w.Stats(); st.TuplesWritten != durable {
		t.Fatalf("dead writer's stats = %+v, want %d tuples written", st, durable)
	}
	w.Close()

	// What a power cut at that instant leaves: the provisional header,
	// k-1 whole blocks, a strict prefix of the k-th.
	var enc columnarEncoder
	want := encodeHeader(segmentHeader{ID: 1})
	for b := 0; b < k-1; b++ {
		want = enc.appendBlock(want, stream[b*bt:(b+1)*bt])
	}
	whole := len(want)
	torn := enc.encodeBlock(stream[(k-1)*bt : k*bt])
	keep := tearLen(len(torn), cps.frac(CrashBlockFlush))
	if keep == 0 {
		t.Fatal("seed tears nothing; pick one that leaves a torn prefix")
	}
	want = append(want, torn[:keep]...)
	path := filepath.Join(dir, segmentFileName(1))
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("segment after the crash: %d bytes (err %v), want %d whole + %d torn", len(got), err, whole, keep)
	}

	w2, err := Create(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st := w2.Stats(); st.TornTruncations != 1 || st.TuplesRecovered != durable {
		t.Fatalf("reopen stats = %+v, want one truncation and %d tuples recovered", st, durable)
	}
	if info, err := os.Stat(path); err != nil || info.Size() != int64(whole) {
		t.Fatalf("reopen left %v bytes (err %v), want exactly the %d before the tear", info.Size(), err, whole)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := selectAll(t, dir, Query{})
	sameTuples(t, got, stream[:durable])
}

// TestWriteFailureLeavesPositionBehind: when the file refuses a call's
// one write, none of that call's blocks count — the cursor, the index
// and the counters stay where the last successful write left them — and
// the writer is sticky-dead.
func TestWriteFailureLeavesPositionBehind(t *testing.T) {
	stream := benchStream(2406, 2)
	w, err := Create(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendRaw(encodeTuples(stream[:3904])); err != nil {
		t.Fatal(err)
	}
	cur, st := w.Position(), w.Stats()
	if cur.Tuples != 15*DefaultBlockTuples {
		t.Fatalf("cursor before the failure = %+v", cur)
	}
	w.f.Close() // the next write fails: file already closed
	err = w.AppendRaw(encodeTuples(stream[3904:]))
	if err == nil || errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("AppendRaw on a closed descriptor = %v, want a write error", err)
	}
	if got := w.Position(); got != cur {
		t.Fatalf("cursor after the failed write = %+v, want %+v", got, cur)
	}
	if got := w.Stats(); got != st {
		t.Fatalf("stats after the failed write = %+v, want %+v", got, st)
	}
	if again := w.Append(stream[:1]); again == nil || again.Error() != err.Error() {
		t.Fatalf("append after the failure = %v, want the sticky %v", again, err)
	}
	if cerr := w.Close(); cerr == nil || cerr.Error() != err.Error() {
		t.Fatalf("close after the failure = %v, want the sticky %v", cerr, err)
	}
}

// TestReopenReadsSealedHeadersOnly: reopening a directory learns the
// older segments' tuple counts from their 64-byte sealed headers. (It
// used to read every segment whole — every ResumeArchive and front-end
// failover paid for the archive's size.)
func TestReopenReadsSealedHeadersOnly(t *testing.T) {
	const segBytes = 256 << 10
	dir := t.TempDir()
	w, err := Create(Options{Dir: dir, SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2407))
	var tuples uint64
	for seq := uint32(0); w.Stats().Rotations < 4; seq += replyRunLen {
		reply := benchReply(rng, seq)
		if err := w.Append(reply); err != nil {
			t.Fatal(err)
		}
		tuples += uint64(len(reply))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 5 {
		t.Fatalf("%d segments on disk, want 5", len(segs))
	}
	for _, s := range segs[:4] {
		if s.size < segBytes {
			t.Fatalf("sealed segment %d is %d bytes, want at least %d", s.id, s.size, segBytes)
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w2, err := Create(Options{Dir: dir, SegmentBytes: segBytes})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	// The newest segment — the short tail Close sealed — is still read
	// whole, to find a torn tail; the four full ones are not.
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= segBytes {
		t.Fatalf("reopening allocated %d bytes, a whole %d-byte segment or more", grew, segBytes)
	}
	if cur := w2.Position(); cur.Tuples != tuples {
		t.Fatalf("reopened cursor covers %d tuples, %d were archived", cur.Tuples, tuples)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
}
