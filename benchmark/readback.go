package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// The readback phase's one-shot queries.
const (
	selectWindowNS = 4_000_000 // the selective query's stamp range: 4 ms
	aggQuery       = "select count(), p99(latency), mean(latency) by ecid window 10ms"
	aggWindowNS    = 10_000_000
	rowFilterQuery = "select * where latency > 350us"
	rowFilterNS    = 350_000
)

// selectiveQuery is a select that touches two collectors over a 4 ms
// stamp range starting at a seeded instant: the pushdown case.
func selectiveQuery(fromNS int64) string {
	return fmt.Sprintf("select * where ecid in (3, 7) and start >= %dns and start < %dns", fromNS, fromNS+selectWindowNS)
}

// reference holds every answer the checks compare against, computed in
// plain Go from the generated tuples before anything is measured.
type reference struct {
	pass tupleSet // the data tuples of one record pass
	full tupleSet // the data tuples of the readback archive

	selectFrom []int64    // seeded start of each selective query
	selects    []tupleSet // and what it must return
	aggregate  []aggRow
	rowFilter  tupleSet
	rounds     uint64 // last-arrival verdicts a complete replay yields
}

func (f *fixture) reference() *reference {
	ref := &reference{rounds: uint64(f.stream.rounds * f.topo.Nodes)}
	passTuples := f.passTuples()
	type cell struct {
		group  uint32
		bucket int64
	}
	cells := make(map[cell][]int64)
	for i, t := range f.stream.tuples {
		if i < passTuples {
			ref.pass.add(t)
		}
		ref.full.add(t)
		lat := t.End - t.Start
		if lat > rowFilterNS {
			ref.rowFilter.add(t)
		}
		c := cell{t.ECID, t.Start - t.Start%aggWindowNS}
		cells[c] = append(cells[c], lat)
	}
	for c, lats := range cells {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		var sum int64
		for _, l := range lats {
			sum += l
		}
		// Nearest rank: the smallest value with at least 99% of the
		// values at or below it.
		rank := (99*len(lats) + 99) / 100
		ref.aggregate = append(ref.aggregate, aggRow{
			Group: c.group, Bucket: c.bucket,
			Vals: []int64{int64(len(lats)), lats[rank-1], sum / int64(len(lats))},
		})
	}
	sort.Slice(ref.aggregate, func(i, j int) bool {
		a, b := ref.aggregate[i], ref.aggregate[j]
		if a.Group != b.Group {
			return a.Group < b.Group
		}
		return a.Bucket < b.Bucket
	})

	// The selective queries' windows: one in each of Selects equal
	// strata of the archive's time span, at a seeded offset within it.
	// What a query costs depends on where in the archive it looks, so
	// the strata keep the mix of positions the same for every seed. The
	// offsets come from a stream of their own, so the tuple generator's
	// draws do not shift them.
	r := rng{s: f.cfg.Seed ^ 0x5e1ec7}
	stratum := (f.stream.endNS - selectWindowNS) / int64(f.cfg.Sizes.Selects)
	for i := 0; i < f.cfg.Sizes.Selects; i++ {
		from := int64(i)*stratum + r.intn(stratum)
		var want tupleSet
		for _, t := range f.stream.tuples {
			if (t.ECID == 3 || t.ECID == 7) && t.Start >= from && t.Start < from+selectWindowNS {
				want.add(t)
			}
		}
		ref.selectFrom = append(ref.selectFrom, from)
		ref.selects = append(ref.selects, want)
	}
	return ref
}

// dataSet fingerprints the data tuples of ts, leaving control tuples out.
func dataSet(ts []Tuple) tupleSet {
	var s tupleSet
	for _, t := range ts {
		if t.ECID != controlECID {
			s.add(t)
		}
	}
	return s
}

func sameRows(got, want []aggRow) bool {
	// Control tuples form a group of their own (collector id 0) that the
	// generated stream knows nothing of.
	var data []aggRow
	for _, r := range got {
		if r.Group != controlECID {
			data = append(data, r)
		}
	}
	if len(data) != len(want) {
		return false
	}
	for i := range data {
		if data[i].Group != want[i].Group || data[i].Bucket != want[i].Bucket || len(data[i].Vals) != len(want[i].Vals) {
			return false
		}
		for j := range data[i].Vals {
			if data[i].Vals[j] != want[i].Vals[j] {
				return false
			}
		}
	}
	return true
}

// stopwatch times the operations of the readback phase: every operation's
// duration by name, and per pass the mean duration of each kind.
type stopwatch struct {
	tr   *tracer
	ms   map[string]sample // every operation, in milliseconds
	pass map[string]sample // the current pass's operations
	mean map[string]sample // one value per pass: the pass's mean
}

func newStopwatch(tr *tracer) *stopwatch {
	return &stopwatch{tr: tr, ms: make(map[string]sample), pass: make(map[string]sample), mean: make(map[string]sample)}
}

func (w *stopwatch) time(name string, fn func() error) error {
	id := w.tr.begin(name)
	t0 := time.Now()
	err := fn()
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	w.tr.end(id)
	w.ms[name] = append(w.ms[name], ms)
	w.pass[name] = append(w.pass[name], ms)
	return err
}

// endPass folds the pass's operations into one mean per kind.
func (w *stopwatch) endPass() {
	for name, s := range w.pass {
		w.mean[name] = append(w.mean[name], s.mean())
		delete(w.pass, name)
	}
}

// readbackPhase measures the read side over the archive set-up wrote:
// full scans, selective queries (parse, pushdown, scan), grouped windowed
// aggregates, a row filter nothing can be pushed down for, and front-end
// recovery — through the newest checkpoint plus the suffix behind it, and
// by full replay on the copy without a chain. Every answer is compared
// with the reference after its timing stopped. An end-to-end value is the
// median over passes of the pass's mean per operation: the mean, because
// what a read costs depends on whether the allocator has a warm megabyte
// for the segment image, which makes single operations bimodal; the
// median, because a pass disturbed from outside should not count.
//
// The archive reader keeps no cache of its own (a scan reads each segment
// file whole), so the phase has no fits/does-not-fit pair of sizes.
func (f *fixture) readbackPhase(ref *reference, tr *tracer, rep *report) (*phase, error) {
	ph := &phase{name: "readback", share: shareReadback, floor: f.cfg.Sizes.MinReadbackPasses}
	useRealClock()
	sz := f.cfg.Sizes
	a, err := openArchive(f.archive)
	if err != nil {
		return nil, err
	}
	agg, err := parseQuery(aggQuery)
	if err != nil {
		return nil, err
	}
	filter, err := parseQuery(rowFilterQuery)
	if err != nil {
		return nil, err
	}

	// The archive itself, checked once against the generated stream.
	var archived tupleSet
	var total uint64
	if _, err := a.scan(func(t Tuple) bool {
		total++
		if t.ECID != controlECID {
			archived.add(t)
		}
		return true
	}); err != nil {
		return nil, err
	}
	rep.attempt(1)
	if archived != ref.full {
		rep.fail(1, "readback archive holds %d data tuples (hash %x), generated %d (%x)", archived.n, archived.sum, ref.full.n, ref.full.sum)
	}

	w := newStopwatch(tr)
	matched := make([]Tuple, 0, ref.full.n)
	keep := func(t Tuple) bool { matched = append(matched, t); return true }
	var skips, blocks, segSkips, segs float64
	var checkpointed recovery
	ph.pass = func(pass int) error {
		useRealClock()
		if tr != nil {
			tr.pass = pass
		}
		defer w.endPass()
		var n uint64
		if err := w.time("readback.scan", func() error {
			_, err := a.scan(func(Tuple) bool { n++; return true })
			return err
		}); err != nil {
			return err
		}
		rep.attempt(1)
		if n != total {
			rep.fail(1, "a scan saw %d tuples, the archive holds %d", n, total)
		}
		for q := range ref.selects {
			src := selectiveQuery(ref.selectFrom[q])
			matched = matched[:0]
			var st scanStats
			if err := w.time("readback.select", func() error {
				s, err := parseQuery(src)
				if err != nil {
					return err
				}
				st, err = a.selectRows(s, true, keep)
				return err
			}); err != nil {
				return err
			}
			skips += float64(st.BlocksSkipped)
			blocks += float64(st.BlocksSkipped + st.BlocksScanned)
			segSkips += float64(st.SegmentsSkipped)
			segs += float64(st.Segments)
			rep.attempt(1)
			if got := dataSet(matched); got != ref.selects[q] {
				rep.fail(1, "%q returned %d tuples (hash %x), reference %d (%x)", src, got.n, got.sum, ref.selects[q].n, ref.selects[q].sum)
			}
		}
		var rows []aggRow
		if err := w.time("readback.aggregate", func() error {
			var err error
			rows, err = a.aggregate(agg)
			return err
		}); err != nil {
			return err
		}
		rep.attempt(1)
		if !sameRows(rows, ref.aggregate) {
			rep.fail(1, "%q: %d rows differ from the %d reference rows", aggQuery, len(rows), len(ref.aggregate))
		}
		matched = matched[:0]
		if err := w.time("readback.row_filter", func() error {
			_, err := a.selectRows(filter, true, keep)
			return err
		}); err != nil {
			return err
		}
		rep.attempt(1)
		if got := dataSet(matched); got != ref.rowFilter {
			rep.fail(1, "%q returned %d tuples (hash %x), reference %d (%x)", rowFilterQuery, got.n, got.sum, ref.rowFilter.n, ref.rowFilter.sum)
		}
		for i := 0; i < sz.Recoveries; i++ {
			if err := w.time("readback.recover", func() error {
				var err error
				checkpointed, err = recoverFrontEnd(f.archive, f.alerts)
				return err
			}); err != nil {
				return err
			}
			rep.attempt(1)
			if !checkpointed.Checkpointed || checkpointed.Fallbacks != 0 || checkpointed.Rounds != ref.rounds {
				rep.fail(1, "checkpointed recovery: %+v, want %d rounds through the newest frame", checkpointed, ref.rounds)
			}
		}
		var full recovery
		if err := w.time("readback.recover_full", func() error {
			var err error
			full, err = recoverFrontEnd(f.replayed, f.alerts)
			return err
		}); err != nil {
			return err
		}
		rep.attempt(1)
		switch {
		case full.Checkpointed || full.Rounds != ref.rounds:
			rep.fail(1, "full-replay recovery: %+v, want %d rounds and no checkpoint", full, ref.rounds)
		case full.Weighted != checkpointed.Weighted || full.HasEngine != checkpointed.HasEngine:
			rep.fail(1, "checkpointed recovery's weighted tree differs from full replay's:\n%s--\n%s", checkpointed.Weighted, full.Weighted)
		}
		return nil
	}

	ph.finish = func() error {
		var scanRate sample
		for _, ms := range w.mean["readback.scan"] {
			scanRate = append(scanRate, float64(total)/(ms/1e3))
		}
		rep.set("scan_tuples_per_s", "tuples/s", scanRate)
		rep.set("query_selective_ms", "ms", w.mean["readback.select"])
		rep.set("query_agg_ms", "ms", w.mean["readback.aggregate"])
		rep.set("recover_ms", "ms", w.mean["readback.recover"])
		rep.set("recover_full_ms", "ms", w.mean["readback.recover_full"])
		rep.setTail("query.selective_tail_ms", "ms", w.ms["readback.select"])
		rep.setTail("reconfig.recover_tail_ms", "ms", w.ms["readback.recover"])
		rep.setValue("archive.blocks_skipped_share", "fraction", skips/blocks)
		rep.setValue("archive.segments_skipped_share", "fraction", segSkips/segs)
		rep.setValue("reconfig.suffix_tuples", "count", float64(total-checkpointed.TuplesSkipped))
		rep.setValue("reconfig.bytes_replayed", "B", float64(checkpointed.BytesReplayed))
		rep.setValue("reconfig.fallbacks", "count", float64(checkpointed.Fallbacks))
		if tr == nil {
			return nil
		}
		return f.readbackLayers(a, rep, w, total)
	}
	return ph, nil
}

// timeMS runs fn reps times and returns the durations in milliseconds.
func timeMS(reps int, fn func() error) (sample, error) {
	var s sample
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		s = append(s, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return s, nil
}

// readbackLayers times the read side's layers one public function at a
// time. Replays and evaluations are reported net of the plain scan they
// ride on, so the layers add up to the end-to-end figures.
func (f *fixture) readbackLayers(a *archiveReader, rep *report, w *stopwatch, total uint64) error {
	tuples := float64(total)
	scanMS := w.mean["readback.scan"].median()
	nsPerTuple := func(ms float64) float64 { return ms * 1e6 / tuples }
	rep.setValue("archive.scan_ns_per_tuple", "ns", nsPerTuple(scanMS))
	rep.setValue("query.eval_ns_per_row", "ns", nsPerTuple(w.mean["readback.row_filter"].median()-scanMS))
	rep.setValue("query.agg_ns_per_row", "ns", nsPerTuple(w.mean["readback.aggregate"].median()-scanMS))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := a.scan(func(Tuple) bool { return true }); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	rep.setValue("archive.scan_alloc_bytes_per_tuple", "B", float64(after.TotalAlloc-before.TotalAlloc)/tuples)

	open, err := timeMS(20, func() error { _, err := openArchive(f.archive); return err })
	if err != nil {
		return err
	}
	rep.set("archive.open_ms", "ms", open)

	src := selectiveQuery(1_000_000)
	parse, err := timeMS(200, func() error { _, err := parseQuery(src); return err })
	if err != nil {
		return err
	}
	rep.set("query.parse_us", "us", parse.scaled(1e3))

	stmts, err := parseAlerts(standingAlerts)
	if err != nil {
		return err
	}
	for _, layer := range []struct {
		metric string
		fn     func() error
	}{
		{"query.replay_ns_per_tuple", func() error { _, err := a.replayAlerts(stmts); return err }},
		{"monitor.replay_la_ns_per_tuple", func() error { _, err := a.replayLastArrival(); return err }},
		{"monitor.replay_stats_ns_per_tuple", func() error { _, err := a.replayStats(); return err }},
	} {
		ms, err := timeMS(3, layer.fn)
		if err != nil {
			return err
		}
		rep.setValue(layer.metric, "ns", nsPerTuple(ms.median()-scanMS))
	}

	load, err := timeMS(50, func() error {
		if _, ok := loadNewestFrame(f.archive); !ok {
			return fmt.Errorf("no valid checkpoint frame in %s", f.archive)
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("checkpoint.load_ms", "ms", load)
	fr, _ := loadNewestFrame(f.archive)
	var buf []byte
	enc, err := timeMS(200, func() error { buf = fr.encode(); return nil })
	if err != nil {
		return err
	}
	dec, err := timeMS(200, func() error { return decodeFrame(buf) })
	if err != nil {
		return err
	}
	rep.set("checkpoint.encode_us", "us", enc.scaled(1e3))
	rep.set("checkpoint.decode_us", "us", dec.scaled(1e3))

	var suffix float64
	from, err := timeMS(50, func() error {
		suffix = 0
		_, err := a.scanSuffix(fr, func(Tuple) bool { suffix++; return true })
		return err
	})
	if err != nil {
		return err
	}
	if suffix == 0 {
		return fmt.Errorf("no suffix behind the newest checkpoint frame of %s", f.archive)
	}
	rep.setValue("archive.scanfrom_ns_per_tuple", "ns", from.median()*1e6/suffix)
	return nil
}
