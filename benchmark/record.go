package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// collectPhase times EventCollector.Op around a wrapper that does nothing
// — the paper's section 6.1 "cost of monitoring" — in batches, on the real
// clock. On record_full the collector's self-metrics site is attached.
func (f *fixture) collectPhase(_ *reference, tr *tracer, rep *report) (*phase, error) {
	ph := &phase{name: "collect", share: shareCollect, floor: f.cfg.Sizes.MinCollectPasses}
	useRealClock()
	site, err := newOpSite(f.rec)
	if err != nil {
		return nil, err
	}
	batch := f.cfg.Sizes.OpBatch
	if err := site.run(batch); err != nil { // warm-up
		return nil, err
	}
	var perOp sample
	ph.pass = func(int) error {
		useRealClock()
		for b := 0; b < f.cfg.Sizes.PassBatches; b++ {
			id := tr.begin("collect.op_batch")
			t0 := time.Now()
			err := site.run(batch)
			perOp = append(perOp, float64(time.Since(t0).Nanoseconds())/float64(batch))
			tr.end(id)
			if err != nil {
				return err
			}
		}
		return nil
	}
	ph.finish = func() error {
		rep.attempt(len(perOp))
		rep.set("collect_op_ns", "ns", perOp)
		rep.setTail("collect.op_tail_ns", "ns", perOp)
		return nil
	}
	return ph, nil
}

// timedSink is the traced run's shim between two sink-chain elements: it
// records a span around the element behind it, so that element's self
// time is its span minus the span of the shim it calls next.
type timedSink struct {
	name  string
	inner rawSink
	tr    *tracer
}

func (s timedSink) AppendRaw(data []byte) error {
	id := s.tr.begin(s.name)
	err := s.inner.AppendRaw(data)
	s.tr.end(id)
	return err
}

// passResult is what one pass through the record pipeline did.
type passResult struct {
	WallNS    int64 // first buffer write to Writer.Close returning
	Tuples    int   // data tuples written
	Chain     chainStats
	Pulls     uint64
	Msgs      uint64
	PullBytes uint64
	DirBytes  int64 // segment plus checkpoint-chain bytes
}

// recordPass drives steps steps of the stream through the pipeline into a
// fresh archive at dir: each step writes its rounds into the collectors'
// trace buffers, gathers them with one pull over the event scope, and
// hands the reply to the sink chain. final forces the closing checkpoint
// a stopping recorder writes; the archive is sealed either way. With a
// tracer, spans are recorded around every layer boundary.
func (f *fixture) recordPass(dir string, steps int, final bool, tr *tracer) (passResult, error) {
	var wrap func(string, rawSink) rawSink
	if tr != nil {
		wrap = func(name string, s rawSink) rawSink { return timedSink{name, s, tr} }
	}
	c, err := f.rec.openChain(dir, f.alerts, wrap)
	if err != nil {
		return passResult{}, err
	}
	res := passResult{Tuples: steps * f.perStep()}
	pulls0, msgs0 := f.rec.counters()
	per := f.perStep()
	pass := tr.begin("record.pass")
	start := time.Now()
	for s := 0; s < steps; s++ {
		id := tr.begin("collect.write")
		err := f.rec.write(f.stream, s*per, (s+1)*per)
		tr.end(id)
		if err != nil {
			return res, err
		}
		id = tr.begin("escope.pull")
		data, err := f.rec.pull()
		tr.end(id)
		if err != nil {
			return res, err
		}
		res.PullBytes += uint64(len(data))
		if err := c.append(data); err != nil {
			return res, err
		}
	}
	if final {
		id := tr.begin("checkpoint.force")
		err := c.checkpoint()
		tr.end(id)
		if err != nil {
			return res, err
		}
	}
	id := tr.begin("archive.seal")
	err = c.seal()
	tr.end(id)
	res.WallNS = time.Since(start).Nanoseconds()
	tr.end(pass)
	if err != nil {
		return res, err
	}
	pulls1, msgs1 := f.rec.counters()
	res.Pulls, res.Msgs = pulls1-pulls0, msgs1-msgs0
	res.Chain = c.stats()
	res.DirBytes, err = archiveBytes(dir)
	return res, err
}

// verifyPass reopens a sealed pass archive and compares it with what was
// generated: every data tuple present (count and order-insensitive hash),
// and as many archived alert tuples as the engine says it fired.
func (f *fixture) verifyPass(dir string, res passResult, want tupleSet, rep *report) error {
	a, err := openArchive(dir)
	if err != nil {
		return err
	}
	var got tupleSet
	alerts := 0
	if _, err := a.scan(func(t Tuple) bool {
		switch {
		case t.ECID != controlECID:
			got.add(t)
		case t.Op == opAlert:
			alerts++
		}
		return true
	}); err != nil {
		return err
	}
	rep.attempt(int(want.n))
	switch {
	case got.n < want.n:
		rep.fail(int(want.n-got.n), "%s: %d of %d generated tuples are in the sealed archive", dir, got.n, want.n)
	case got != want:
		rep.fail(1, "%s: archived tuples differ from the generated stream (count %d/%d, hash %x/%x)", dir, got.n, want.n, got.sum, want.sum)
	}
	if alerts != res.Chain.Alerts {
		rep.fail(1, "%s: engine fired %d alerts, archive holds %d", dir, res.Chain.Alerts, alerts)
	}
	return nil
}

// recordPhase measures the record pipeline pass by pass. A traced run
// alternates untraced and traced passes, so the tracing overhead is
// measured inside one process on the same data.
func (f *fixture) recordPhase(ref *reference, tr *tracer, rep *report) (*phase, error) {
	ph := &phase{name: "record", share: shareRecord, floor: f.cfg.Sizes.MinRecordPasses}
	useRealClock()
	sz := f.cfg.Sizes
	dir := func(i int) string { return filepath.Join(f.dir, fmt.Sprintf("pass-%d", i)) }

	// Warm-up pass, unmeasured. Its archive also gives the reference
	// alert count: what query.Replay regenerates from the sealed data.
	warm, err := f.recordPass(dir(-1), sz.PassSteps, true, nil)
	if err != nil {
		return nil, err
	}
	if err := f.verifyPass(dir(-1), warm, ref.pass, rep); err != nil {
		return nil, err
	}
	a, err := openArchive(dir(-1))
	if err != nil {
		return nil, err
	}
	replayed, err := a.replayAlerts(f.alerts)
	if err != nil {
		return nil, err
	}
	rep.attempt(1)
	if replayed != warm.Chain.Alerts {
		rep.fail(1, "query.Replay regenerates %d alerts from the sealed archive, the engine fired %d", replayed, warm.Chain.Alerts)
	}
	if err := os.RemoveAll(dir(-1)); err != nil {
		return nil, err
	}

	run := &recordRun{mark: tr.mark(), alerts: replayed}
	ph.pass = func(i int) error {
		useRealClock()
		var passTr *tracer
		if tr != nil && i%2 == 1 {
			passTr = tr
			tr.pass = i
		}
		var before, after runtime.MemStats
		if tr != nil && passTr == nil {
			runtime.ReadMemStats(&before)
		}
		res, err := f.recordPass(dir(i), sz.PassSteps, true, passTr)
		if err != nil {
			return err
		}
		if tr != nil && passTr == nil {
			runtime.ReadMemStats(&after)
			run.mallocs = append(run.mallocs, float64(after.Mallocs-before.Mallocs)/float64(res.Tuples))
			run.allocBytes = append(run.allocBytes, float64(after.TotalAlloc-before.TotalAlloc)/float64(res.Tuples))
		}
		if err := f.verifyPass(dir(i), res, ref.pass, rep); err != nil {
			return err
		}
		if res.Chain.Alerts != replayed {
			rep.fail(1, "pass %d fired %d alerts, reference is %d", i, res.Chain.Alerts, replayed)
		}
		if passTr == nil {
			run.plain = append(run.plain, res)
		} else {
			run.traced = append(run.traced, res)
		}
		return os.RemoveAll(dir(i))
	}

	ph.finish = func() error {
		var rate, bytesPer sample
		for _, r := range run.plain {
			rate = append(rate, float64(r.Tuples)/(float64(r.WallNS)/1e9))
			bytesPer = append(bytesPer, float64(r.DirBytes)/float64(r.Tuples))
		}
		rep.set("record_tuples_per_s", "tuples/s", rate)
		rep.set("archive_bytes_per_tuple", "B", bytesPer)

		// Counts that must repeat bit for bit for a seed.
		first := run.plain[0]
		for _, r := range append(append([]passResult(nil), run.plain...), run.traced...) {
			if r.DirBytes != first.DirBytes || r.Chain != first.Chain || r.Pulls != first.Pulls ||
				r.Msgs != first.Msgs || r.PullBytes != first.PullBytes {
				rep.fail(1, "a record pass is not exact: %+v, first pass %+v", r, first)
			}
		}
		rep.setValue("escope.pulls", "count", float64(first.Pulls))
		rep.setValue("escope.bytes_per_pull", "B", float64(first.PullBytes)/float64(first.Pulls))
		rep.setValue("vnet.msgs_per_pull", "count", float64(first.Msgs)/float64(first.Pulls))
		rep.setValue("checkpoint.frames", "count", float64(first.Chain.Frames))
		rep.setValue("checkpoint.frame_bytes", "B", float64(first.Chain.FrameBytes)/float64(first.Chain.Frames))
		rep.setValue("archive.segments", "count", float64(first.Chain.Segments))
		if tr == nil {
			return nil
		}
		return f.recordLayers(rep, tr, run)
	}
	return ph, nil
}

// recordRun is what the record phase's passes leave behind.
type recordRun struct {
	plain, traced       []passResult // untraced and traced passes
	mallocs, allocBytes sample       // per tuple, over the untraced passes of a traced run
	mark                int          // the tracer's span count when the phase began
	alerts              int          // alerts a pass fires
}

// nsPerTuple is each pass's wall time per data tuple.
func nsPerTuple(passes []passResult) sample {
	var s sample
	for _, r := range passes {
		s = append(s, float64(r.WallNS)/float64(r.Tuples))
	}
	return s
}

// recordLayers turns the traced passes' spans into the per-layer tuple
// budget: each layer's self time per data tuple, the tracing overhead,
// and the gap between the layers' sum and the measured wall time.
func (f *fixture) recordLayers(rep *report, tr *tracer, run *recordRun) error {
	if len(run.traced) == 0 {
		return fmt.Errorf("no traced record pass fitted into the run")
	}
	spans := rebase(tr.spans, run.mark)
	self := selfTimes(spans)
	tuples := float64(len(run.traced) * f.passTuples())
	perTuple := func(name string) float64 { return float64(self[name]) / tuples }

	rep.setValue("collect.write_ns_per_tuple", "ns", perTuple("collect.write"))
	rep.setValue("escope.pull_ns_per_tuple", "ns", perTuple("escope.pull"))
	rep.setValue("checkpoint.fold_ns_per_tuple", "ns", perTuple("checkpoint.append"))
	rep.setValue("archive.append_ns_per_tuple", "ns", perTuple("archive.append"))
	rep.set("checkpoint.force_ms", "ms", durations(spans, "checkpoint.force").scaled(1e-6))
	rep.set("archive.seal_ms", "ms", durations(spans, "archive.seal").scaled(1e-6))

	// The engine's self time: in the chain on record_full; on record,
	// whose chain has none, the same engine fed the same batches off to
	// the side, so the number exists — and means the same — on both.
	engine, alerts := perTuple("query.append"), run.alerts
	if len(f.alerts) == 0 {
		var err error
		if engine, alerts, err = f.offlineEngine(); err != nil {
			return err
		}
	}
	rep.setValue("query.engine_ns_per_tuple", "ns", engine)
	rep.setValue("query.alerts_fired", "count", float64(alerts))

	rep.set("core.allocs_per_tuple", "count", run.mallocs)
	rep.set("core.alloc_bytes_per_tuple", "B", run.allocBytes)

	// Wall and layers are both means over the traced passes, so their
	// difference is what no layer's span covers.
	wall := nsPerTuple(run.traced).mean()
	var layers float64
	for _, name := range []string{"collect.write", "escope.pull", "checkpoint.append", "query.append", "archive.append", "checkpoint.force", "archive.seal"} {
		layers += perTuple(name)
	}
	rep.setValue("record.wall_ns_per_tuple", "ns", wall)
	rep.setValue("record.layer_gap_ns_per_tuple", "ns", wall-layers)
	plain := nsPerTuple(run.plain).median()
	rep.setValue("record.trace_overhead_pct", "%", 100*(nsPerTuple(run.traced).median()-plain)/plain)
	return nil
}

// offlineEngine feeds one pass's gathered batches to an engine with the
// standing alerts and no sink, timing only the engine.
func (f *fixture) offlineEngine() (nsPerTuple float64, alerts int, err error) {
	stmts, err := parseAlerts(standingAlerts)
	if err != nil {
		return 0, 0, err
	}
	eng, err := newOfflineEngine(stmts, len(f.topo.IDs))
	if err != nil {
		return 0, 0, err
	}
	per := f.perStep()
	var spent time.Duration
	for s := 0; s < f.cfg.Sizes.PassSteps; s++ {
		if err := f.rec.write(f.stream, s*per, (s+1)*per); err != nil {
			return 0, 0, err
		}
		data, err := f.rec.pull()
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		err = eng.AppendRaw(data)
		spent += time.Since(t0)
		if err != nil {
			return 0, 0, err
		}
	}
	return float64(spent.Nanoseconds()) / float64(f.passTuples()), eng.alerts(), nil
}
