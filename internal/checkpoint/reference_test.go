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
// thread: AppendRaw forwards, decodes, feeds the shadow and, on
// cadence, flushes, snapshots, writes the frame, appends the mark and
// prunes before it returns. It drives a Checkpointer's fields (built by
// New) without ever starting a job. TestCheckpointerMatchesReference
// holds Checkpointer to it.
type refCheckpointer struct{ c *Checkpointer }

func (r refCheckpointer) AppendRaw(data []byte) error {
	c := r.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	if err := c.inner.AppendRaw(data); err != nil {
		return err
	}
	if err := r.fold(data); err != nil {
		return err
	}
	if c.since >= c.every {
		return r.checkpointLocked()
	}
	return nil
}

func (r refCheckpointer) fold(data []byte) error {
	c := r.c
	var err error
	c.batch, err = collect.DecodeAppend(c.batch[:0], data)
	if err != nil {
		return err
	}
	for _, t := range c.batch {
		c.shadow.Feed(t)
		if t.ECID != collect.ControlECID {
			if t.Start > c.at {
				c.at = t.Start
			}
			c.since++
		}
	}
	return nil
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
	if err == nil {
		c.cWrites.Inc()
	}
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
	c.written++
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
	return Stats{Seq: c.seq, Written: c.written, Bytes: c.bytes}
}

// refRig is one checkpointer over a fresh archive directory, with the
// query engine in front of its writer when alerts are given.
type refRig struct {
	dir string
	w   *archive.Writer
	eng *query.Engine
	ck  *Checkpointer
}

func newRefRig(t *testing.T, infos []archive.CollectorInfo, every uint64, alerts []string, crashAt int) refRig {
	t.Helper()
	r := refRig{dir: t.TempDir()}
	var cps *archive.CrashPoints
	if crashAt > 0 {
		cps = &archive.CrashPoints{Seed: 9, Specs: []archive.CrashSpec{{Site: archive.CrashCheckpoint, Count: crashAt}}}
	}
	var err error
	if r.w, err = archive.Create(archive.Options{Dir: r.dir, SegmentBytes: 64 << 10, BlockTuples: 256}); err != nil {
		t.Fatal(err)
	}
	var inner Sink = r.w
	if len(alerts) > 0 {
		r.eng = query.NewEngine(r.w)
		r.eng.SetExpected(len(infos))
		for _, src := range alerts {
			st, err := query.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.eng.Register(st); err != nil {
				t.Fatal(err)
			}
		}
		inner = r.eng
	}
	if r.ck, err = New(r.w, inner, r.eng, infos, Config{EveryTuples: every, CrashPoints: cps}); err != nil {
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
// with the same bytes: segments and chain alike.
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

// refBatches cuts a seeded benchmark-shaped stream (61 collectors,
// complete rounds laid out collector by collector) into batches whose
// sizes are drawn from sizes.
func refBatches(seed int64, batches int, sizes []int) ([]archive.CollectorInfo, [][]byte) {
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
		out = append(out, encodeBatch(stream[:n]))
		stream = stream[n:]
	}
	return infos, out
}

// TestCheckpointerMatchesReference feeds seeded batches of 1, 7 and
// 3 904 tuples to the checkpointer and to refCheckpointer, with the
// cadence landing mid-batch and exactly on batch edges, with and without
// a query engine, and requires byte-identical segment and chain files,
// equal Stats and equal alerts. The crash arm tears the 1st, 2nd or 3rd
// frame: the archives and the torn file must match, and the error must
// come back no later than the call after the reference's.
func TestCheckpointerMatchesReference(t *testing.T) {
	alerts := []string{
		"alert when p99(latency) > 130us by ecid window 2ms",
		"alert when coverage() < 1.0 for 3 rounds every 1ms",
		"alert when errors() > 0 window 1ms",
	}
	cases := []struct {
		name    string
		sizes   []int
		every   uint64
		batches int
	}{
		{"edge/7", []int{7}, 14, 300},        // every second batch ends exactly on the cadence
		{"edge/3904", []int{3904}, 3904, 12}, // every batch does
		{"mid/1-7-3904", []int{1, 7, 3904}, 4096, 40},
		{"mid/1-7", []int{1, 7}, 50, 400},
	}
	for seed, tc := range cases {
		for _, withEngine := range []bool{false, true} {
			var stmts []string
			if withEngine {
				stmts = alerts
			}
			name := fmt.Sprintf("%s/engine=%v", tc.name, withEngine)
			t.Run(name, func(t *testing.T) {
				infos, batches := refBatches(int64(seed), tc.batches, tc.sizes)
				ref, got := newRefRig(t, infos, tc.every, stmts, 0), newRefRig(t, infos, tc.every, stmts, 0)
				r := refCheckpointer{ref.ck}
				for i, b := range batches {
					if err := r.AppendRaw(b); err != nil {
						t.Fatalf("reference batch %d: %v", i, err)
					}
					if err := got.ck.AppendRaw(b); err != nil {
						t.Fatalf("batch %d: %v", i, err)
					}
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
				if withEngine && !reflect.DeepEqual(got.eng.Alerts(), ref.eng.Alerts()) {
					t.Fatalf("alerts diverged: %d fired, reference %d", len(got.eng.Alerts()), len(ref.eng.Alerts()))
				}
				for _, rig := range []refRig{ref, got} {
					if err := rig.w.Close(); err != nil {
						t.Fatal(err)
					}
				}
				sameFiles(t, ref, got)
			})
		}
	}

	for crashAt := 1; crashAt <= 3; crashAt++ {
		t.Run(fmt.Sprintf("crash/frame-%d", crashAt), func(t *testing.T) {
			infos, batches := refBatches(int64(crashAt), 200, []int{1, 7, 3904})
			ref, got := newRefRig(t, infos, 4096, alerts, crashAt), newRefRig(t, infos, 4096, alerts, crashAt)
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
			if want, have := r.Stats(), got.ck.Stats(); want != have {
				t.Fatalf("Stats %+v, reference %+v", have, want)
			}
			for _, rig := range []refRig{ref, got} {
				if err := rig.w.Close(); err != nil {
					t.Fatal(err)
				}
			}
			sameFiles(t, ref, got)
			if _, info, _ := LoadNewest(got.dir); info.Skipped != 1 {
				t.Fatalf("LoadNewest skipped %d frames, want the one torn", info.Skipped)
			}
		})
	}
}
