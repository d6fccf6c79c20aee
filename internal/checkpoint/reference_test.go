package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"eventspace/internal/archive"
	"eventspace/internal/collect"
	"eventspace/internal/hrtime"
	"eventspace/internal/query"
)

// refCheckpointer is the checkpointer with its whole fold on the caller's
// thread: AppendRaw forwards the bytes, decodes them, feeds the shadow
// and, on cadence, flushes, snapshots, writes the frame, appends the
// mark and prunes before it returns — so the writer, the engine and the
// shadow each decode the batch themselves. A batch that ends mid-tuple
// is folded up to the tear, as far as the archive took it, before the
// tear is reported. It drives a Checkpointer's fields (built by New)
// without ever starting a job, so bufs[0] is its decode scratch.
// TestCheckpointerMatchesReference holds Checkpointer to it.
type refCheckpointer struct{ c *Checkpointer }

func (r refCheckpointer) AppendRaw(data []byte) error {
	c := r.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	var tail error
	if err := c.inner.AppendRaw(data); err != nil {
		if !errors.As(err, new(*collect.PartialTupleError)) {
			return err
		}
		tail = err
	}
	r.fold(data)
	if c.since >= c.every {
		if err := r.checkpointLocked(); err != nil {
			return err
		}
	}
	return tail
}

// fold decodes a batch's whole tuples and feeds them to the shadow.
func (r refCheckpointer) fold(data []byte) {
	c := r.c
	c.bufs[0], _ = collect.DecodeAppend(c.bufs[0][:0], data)
	for _, t := range c.bufs[0] {
		c.shadow.Feed(t)
		if t.ECID != collect.ControlECID {
			if t.Start > c.at {
				c.at = t.Start
			}
			c.since++
		}
	}
}

func (r refCheckpointer) Checkpoint() error {
	c := r.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return r.checkpointLocked()
}

func (r refCheckpointer) checkpointLocked() error {
	c := r.c
	start := hrtime.Now()
	n, err := r.writeLocked()
	c.opWrite.Record(hrtime.Since(start), n, err)
	c.err = err
	return err
}

func (r refCheckpointer) writeLocked() (int, error) {
	c := r.c
	if err := c.w.Flush(); err != nil {
		return 0, err
	}
	cur := c.w.Position()
	cp := Checkpoint{Seq: c.seq + 1, At: c.at, Cursor: cur}
	cp.LA, cp.Stats = c.shadow.State()
	if c.engine != nil {
		cp.HasEngine = true
		cp.Engine = c.engine.State()
	}
	frame := c.enc.encode(cp)
	n := len(frame)
	if err := write(c.dir, cp.Seq, frame, c.cps); err != nil {
		return n, err
	}
	c.seq = cp.Seq
	c.chain = append(c.chain, cp.Seq)
	c.since = 0
	c.written.Add(1)
	c.bytes += uint64(n)
	mark := collect.EncodeCheckpointMark(collect.CheckpointMark{Seq: c.seq, Tuples: cur.Tuples, At: c.at})
	if err := c.w.Append([]collect.TraceTuple{mark}); err != nil {
		return n, err
	}
	c.shadow.Feed(mark)
	return n, c.prune()
}

func (r refCheckpointer) Stats() Stats {
	c := r.c
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Seq: c.seq, Written: c.written.Load(), Bytes: c.bytes}
}

// refRig is one checkpointer over a fresh archive directory, with the
// query engine in front of its writer when alerts are given.
type refRig struct {
	dir string
	w   *archive.Writer
	eng *query.Engine
	ck  *Checkpointer
}

// chainShape is how a rig wires the sink chain behind the checkpointer.
type chainShape int

const (
	// direct: inner is the writer, or the engine over it — what the
	// product wires, and the chain the checkpointer decodes once for.
	direct chainShape = iota
	// shimmed: every element behind a raw-only shim, as the benchmark's
	// traced run wires it, so the checkpointer forwards the bytes.
	shimmed
)

// suffix names a subtest's shape; the product's chain takes no suffix.
func (s chainShape) suffix() string { return [...]string{"", "/shimmed"}[s] }

// rawOnly forwards to the sink behind it, as the benchmark's timing
// shims do: a checkpointer cannot see through it, so it forwards bytes.
type rawOnly struct{ s query.Sink }

func (r rawOnly) AppendRaw(data []byte) error { return r.s.AppendRaw(data) }

// rigSpec configures a refRig.
type rigSpec struct {
	every  uint64
	alerts []string
	shape  chainShape
	crash  *archive.CrashSpec // armed on the writer and the checkpointer, when set
}

func newRefRig(t *testing.T, infos []archive.CollectorInfo, spec rigSpec) refRig {
	t.Helper()
	r := refRig{dir: t.TempDir()}
	var cps *archive.CrashPoints
	if spec.crash != nil {
		cps = &archive.CrashPoints{Seed: 9, Specs: []archive.CrashSpec{*spec.crash}}
	}
	var err error
	if r.w, err = archive.Create(archive.Options{Dir: r.dir, SegmentBytes: 64 << 10, BlockTuples: 256, CrashPoints: cps}); err != nil {
		t.Fatal(err)
	}
	var inner query.Sink = r.w
	if spec.shape != direct {
		inner = rawOnly{inner}
	}
	if len(spec.alerts) > 0 {
		r.eng = query.NewEngine(inner)
		r.eng.SetExpected(len(infos))
		for _, src := range spec.alerts {
			st, err := query.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.eng.Register(st); err != nil {
				t.Fatal(err)
			}
		}
		inner = r.eng
		if spec.shape == shimmed {
			inner = rawOnly{inner}
		}
	}
	if r.ck, err = New(r.w, inner, r.eng, infos, Config{EveryTuples: spec.every, CrashPoints: cps}); err != nil {
		t.Fatal(err)
	}
	return r
}

// files reads every file of the rig's directory, by name.
func (r refRig) files(t *testing.T) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if out[e.Name()], err = os.ReadFile(filepath.Join(r.dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// sameFiles fails unless the two rigs' directories hold the same files
// with the same bytes: segments, marks included, and chain alike.
func sameFiles(t *testing.T, want, got refRig) {
	t.Helper()
	a, b := want.files(t), got.files(t)
	for name, wb := range a {
		gb, ok := b[name]
		switch {
		case !ok:
			t.Errorf("%s: missing", name)
		case !bytes.Equal(wb, gb):
			t.Errorf("%s: %d bytes differ from the reference's %d", name, len(gb), len(wb))
		}
	}
	for name := range b {
		if _, ok := a[name]; !ok {
			t.Errorf("%s: not in the reference's directory", name)
		}
	}
}

// sameAlerts fails unless the two rigs' engines fired the same alerts.
func sameAlerts(t *testing.T, want, got refRig) {
	t.Helper()
	if want.eng != nil && !reflect.DeepEqual(got.eng.Alerts(), want.eng.Alerts()) {
		t.Fatalf("alerts diverged: %d fired, reference %d", len(got.eng.Alerts()), len(want.eng.Alerts()))
	}
}

// closeAll seals the rigs' writers; one an injected crash killed
// reports the crash again, which is no failure.
func closeAll(t *testing.T, rigs ...refRig) {
	t.Helper()
	for _, rig := range rigs {
		if err := rig.w.Close(); err != nil && !errors.Is(err, archive.ErrInjectedCrash) {
			t.Fatal(err)
		}
	}
}

// refBatches cuts a seeded benchmark-shaped stream (61 collectors,
// complete rounds laid out collector by collector) into batches whose
// sizes are drawn from sizes. With ragged, about one batch in four ends
// in 1 to 27 stray bytes.
func refBatches(seed int64, batches int, sizes []int, ragged bool) ([]archive.CollectorInfo, [][]byte) {
	infos := treeInfos(6, 6)
	rng := rand.New(rand.NewSource(seed))
	var out [][]byte
	var stream []collect.TraceTuple
	next := uint32(1)
	for len(out) < batches {
		n := sizes[rng.Intn(len(sizes))]
		for len(stream) < n {
			stream = append(stream, treeRounds(rng, infos, next, 64)...)
			next += 64
		}
		b := encodeBatch(stream[:n])
		if ragged && rng.Intn(4) == 0 {
			b = append(b, make([]byte, 1+rng.Intn(collect.TupleSize-1))...)
		}
		out = append(out, b)
		stream = stream[n:]
	}
	return infos, out
}

// refAlerts are the engine arm's standing alerts, tuned to fire on
// refBatches' stream.
var refAlerts = []string{
	"alert when p99(latency) > 130us by ecid window 2ms",
	"alert when coverage() < 1.0 for 3 rounds every 1ms",
	"alert when errors() > 0 window 1ms",
}

// TestCheckpointerMatchesReference feeds seeded batches of 1, 7 and
// 3 904 tuples to the checkpointer and to refCheckpointer, with the
// cadence landing mid-batch and exactly on batch edges, with and without
// a query engine, over each chain shape, and requires byte-identical
// segment and chain files, equal Stats and equal alerts. The ragged arm
// ends some batches mid-tuple: both must report the tear from the same
// call and archive, fold and evaluate alike around it. The crash arms
// tear the 1st, 2nd or 3rd frame, or a block flush: the archives and
// any torn file must match, and the error must come back no later than
// the call after the reference's.
func TestCheckpointerMatchesReference(t *testing.T) {
	cases := []struct {
		name    string
		sizes   []int
		every   uint64
		batches int // over the product's chain
		shimmed int // behind the shims
		ragged  bool
	}{
		{"edge/7", []int{7}, 14, 300, 100, false},      // every second batch ends exactly on the cadence
		{"edge/3904", []int{3904}, 3904, 12, 4, false}, // every batch does
		{"mid/1-7-3904", []int{1, 7, 3904}, 4096, 40, 20, false},
		{"mid/1-7", []int{1, 7}, 50, 400, 100, false},
		{"ragged/1-7-3904", []int{1, 7, 3904}, 4096, 20, 20, true},
		{"ragged/7", []int{7}, 14, 100, 100, true},
	}
	for seed, tc := range cases {
		for _, withEngine := range []bool{false, true} {
			for _, shape := range []chainShape{direct, shimmed} {
				n := tc.batches
				if shape == shimmed {
					n = tc.shimmed
				}
				spec := rigSpec{every: tc.every, shape: shape}
				if withEngine {
					spec.alerts = refAlerts
				}
				t.Run(fmt.Sprintf("%s/engine=%v%s", tc.name, withEngine, shape.suffix()), func(t *testing.T) {
					infos, batches := refBatches(int64(seed), n, tc.sizes, tc.ragged)
					ref, got := newRefRig(t, infos, spec), newRefRig(t, infos, spec)
					r := refCheckpointer{ref.ck}
					tears := 0
					for i, b := range batches {
						werr, gerr := r.AppendRaw(b), got.ck.AppendRaw(b)
						var wt, gt *collect.PartialTupleError
						switch {
						case werr != nil && !errors.As(werr, &wt):
							t.Fatalf("reference batch %d: %v", i, werr)
						case gerr != nil && !errors.As(gerr, &gt):
							t.Fatalf("batch %d: %v", i, gerr)
						case (wt == nil) != (gt == nil) || wt != nil && *wt != *gt:
							t.Fatalf("batch %d: error %v, reference %v", i, gerr, werr)
						case wt != nil:
							tears++
						}
					}
					if tc.ragged && tears == 0 {
						t.Fatal("no batch was ragged: the arm compares nothing")
					}
					if err := r.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					if err := got.ck.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					if want, have := r.Stats(), got.ck.Stats(); want != have || want.Written < 2 {
						t.Fatalf("Stats %+v, reference %+v", have, want)
					}
					if withEngine && len(ref.eng.Alerts()) == 0 {
						t.Fatal("no alert fired: the engine arm compares nothing")
					}
					sameAlerts(t, ref, got)
					closeAll(t, ref, got)
					sameFiles(t, ref, got)
				})
			}
		}
	}

	crashes := []struct {
		name string
		archive.CrashSpec
	}{
		{"frame-1", archive.CrashSpec{Site: archive.CrashCheckpoint, Count: 1}},
		{"frame-2", archive.CrashSpec{Site: archive.CrashCheckpoint, Count: 2}},
		{"frame-3", archive.CrashSpec{Site: archive.CrashCheckpoint, Count: 3}},
		{"block-3", archive.CrashSpec{Site: archive.CrashBlockFlush, Count: 3}},
		{"block-50", archive.CrashSpec{Site: archive.CrashBlockFlush, Count: 50}},
		{"block-120", archive.CrashSpec{Site: archive.CrashBlockFlush, Count: 120}},
	}
	for i, crash := range crashes {
		for _, shape := range []chainShape{direct, shimmed} {
			t.Run("crash/"+crash.name+shape.suffix(), func(t *testing.T) {
				infos, batches := refBatches(int64(i+1), 200, []int{1, 7, 3904}, false)
				spec := rigSpec{every: 4096, alerts: refAlerts, shape: shape, crash: &crash.CrashSpec}
				ref, got := newRefRig(t, infos, spec), newRefRig(t, infos, spec)
				r := refCheckpointer{ref.ck}
				refAt, gotAt := -1, -1
				for i := 0; i < len(batches) && gotAt < 0; i++ {
					if refAt < 0 {
						if err := r.AppendRaw(batches[i]); err != nil {
							if !errors.Is(err, archive.ErrInjectedCrash) {
								t.Fatalf("reference batch %d: %v", i, err)
							}
							refAt = i
						}
					}
					if err := got.ck.AppendRaw(batches[i]); err != nil {
						if !errors.Is(err, archive.ErrInjectedCrash) {
							t.Fatalf("batch %d: %v", i, err)
						}
						gotAt = i
					}
				}
				if refAt < 0 {
					t.Fatal("the reference's crash did not fire")
				}
				if gotAt < 0 {
					// The torn frame came from the last batch: the next call,
					// whatever it is, reports it.
					if err := got.ck.Err(); !errors.Is(err, archive.ErrInjectedCrash) {
						t.Fatalf("crash not reported by Err after the last batch: %v", err)
					}
					gotAt = len(batches)
				}
				if gotAt > refAt+1 {
					t.Fatalf("crash reported at call %d, reference at %d", gotAt, refAt)
				}
				if err := got.ck.AppendRaw(batches[0]); !errors.Is(err, archive.ErrInjectedCrash) {
					t.Fatalf("not sticky-dead after the crash: %v", err)
				}
				if err := got.ck.Checkpoint(); !errors.Is(err, archive.ErrInjectedCrash) {
					t.Fatalf("a frame was cut after the crash: %v", err)
				}
				if want, have := r.Stats(), got.ck.Stats(); want != have {
					t.Fatalf("Stats %+v, reference %+v", have, want)
				}
				sameAlerts(t, ref, got)
				closeAll(t, ref, got)
				sameFiles(t, ref, got)
				if _, info, _ := LoadNewest(got.dir); crash.Site == archive.CrashCheckpoint && info.Skipped != 1 {
					t.Fatalf("LoadNewest skipped %d frames, want the one torn", info.Skipped)
				}
			})
		}
	}
}
