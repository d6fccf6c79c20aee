// Front-end failover: when the monitor front-end itself is lost, its
// in-memory analysis state (the weighted tree, the per-node round joins,
// the statistics streams) dies with it — but the trace archive it sealed
// survives. This file rebuilds that state deterministically by replaying
// the archive through the exact same joins the live monitor ran, and
// packages it as a handoff a replacement monitor is seeded from
// (monitor.NewLoadBalanceFrom / monitor.NewStatsmFrom).
//
// There is one recovery routine, the checkpoint ladder: walk the sidecar
// checkpoint chain newest-first, restore the monitor shadow (and the
// continuous-query engine) from the first rung that validates, and
// replay only the archive suffix after that checkpoint's cursor —
// O(suffix) recovery. Every failure on a rung (torn frame, CRC
// mismatch, cursor drift after retention, port-roster mismatch) falls
// back to the next older rung, and the bottom rung is the same replay
// started from nothing over the whole archive — a cold restart is a
// replay from the empty checkpoint. Damage degrades recovery time,
// never its result. Both entry points ride it:
//
//   - RecoverFrontEnd, for a crashed front end: the handoff asks the
//     replacement to re-read the retained trace windows (Resume.ReRead),
//     closing the gather gap the crash opened.
//   - RebuildFrontEnd, for a cleanly sealed archive: nothing was left
//     ungathered, so ReRead stays unset and the replacement starts at
//     the windows' ends.
//
// The determinism contract: the replay must lose no rounds (Lost() == 0).
// Then the replacement's weighted tree continues exactly where the dead
// front-end's stopped — replaying the failover run's complete archive
// afterwards reproduces the live output byte for byte.
package reconfig

import (
	"fmt"

	"eventspace/internal/archive"
	"eventspace/internal/checkpoint"
	"eventspace/internal/collect"
	"eventspace/internal/hrtime"
	"eventspace/internal/metrics"
	"eventspace/internal/monitor"
	"eventspace/internal/query"
)

// FailoverState is the archive-rebuilt front-end state handoff.
type FailoverState struct {
	// Resume seeds a replacement load-balance monitor: the weighted tree
	// as of the seal, plus per-node join floors.
	Resume *monitor.LoadBalanceResume
	// Stats seeds a replacement statistics monitor (Replay.Tree).
	Stats *monitor.AnalysisTree
	// RoundsRecovered is the number of last-arrival verdicts rebuilt.
	RoundsRecovered uint64
	// TuplesFed / TuplesMatched account the replay's input: every tuple
	// offered, and the contributor tuples the last-arrival joins took.
	TuplesFed     uint64
	TuplesMatched uint64

	// Checkpointed reports whether a checkpoint fast path was taken;
	// CheckpointSeq is the chain rung that validated, and Fallbacks how
	// many newer rungs were rejected (torn, corrupt, or stale) first.
	// ChainEntries is the on-disk chain length.
	Checkpointed  bool
	CheckpointSeq uint32
	Fallbacks     int
	ChainEntries  int
	// TuplesSkipped / BytesReplayed / BytesSkipped account the suffix
	// scan: what the checkpoint spared recovery from reading.
	TuplesSkipped uint64
	BytesReplayed uint64
	BytesSkipped  uint64

	// Engine is the continuous-query engine state as of the end of the
	// replay — restored from the checkpoint and advanced over the suffix
	// — ready to be restored into a resumed recorder's engine so alert
	// streaks continue mid-streak. Nil when no statements were supplied
	// or the recovery path had no engine snapshot to start from.
	Engine *query.EngineState

	// Repair context the reader surfaced while opening the crashed
	// archive. TornSegments/RepairedBytes count torn tails truncated at
	// reopen; SkippedFiles lists header-less segment files left by a
	// crash during rotation; CloseErr is the reader's damage report
	// (non-nil exactly when files were skipped). None of these fail the
	// rebuild — the damage is survivable by design — but silently
	// dropping them hides what the crash cost.
	TornSegments  int
	RepairedBytes int64
	SkippedFiles  []string
	CloseErr      error
}

// RebuildFrontEnd rebuilds a failover handoff from a cleanly sealed
// archive directory. reg, when set, records the rebuild in self-metrics
// (a KindReconfig op plus the reconfig.failovers counter); nil disables.
// It fails when the archive's joins evicted rounds — a lossy rebuild
// would silently double-count on resume, so it is refused outright.
func RebuildFrontEnd(dir string, reg *metrics.Registry) (*FailoverState, error) {
	start := hrtime.Now()
	st, err := recoverFrontEnd(dir, reg, nil)
	if reg != nil {
		reg.Op(metrics.KindReconfig, "failover("+dir+")").Record(hrtime.Since(start), 0, err)
	}
	if err == nil {
		reg.Counter("reconfig.failovers").Inc()
	}
	return st, err
}

// RecoverFrontEnd rebuilds a crashed front end through the checkpoint
// ladder: newest valid checkpoint plus archive suffix, falling back
// rung by rung to full replay. stmts, when non-nil, must be the
// recorder's standing alert statements; the returned state then carries
// the query engine's recovered state so alerts resume mid-streak. The
// handoff's Resume.ReRead is set: a crashed front end has a gather gap
// (tuples still in collector buffers), so the replacement re-reads the
// retained windows with the floors blocking any double count.
func RecoverFrontEnd(dir string, reg *metrics.Registry, stmts []*query.Stmt) (*FailoverState, error) {
	start := hrtime.Now()
	st, err := recoverFrontEnd(dir, reg, stmts)
	if reg != nil {
		reg.Op(metrics.KindReconfig, "recover("+dir+")").Record(hrtime.Since(start), 0, err)
	}
	if err == nil {
		st.Resume.ReRead = true
		reg.Counter("reconfig.recoveries").Inc()
		if st.Checkpointed {
			reg.Counter("reconfig.recoveries.checkpointed").Inc()
		}
	}
	return st, err
}

// recoverFrontEnd walks the ladder: each chain entry newest-first, then
// the chain-less bottom rung, whose failure is the recovery's failure.
func recoverFrontEnd(dir string, reg *metrics.Registry, stmts []*query.Stmt) (*FailoverState, error) {
	infos, err := archive.ReadMeta(dir)
	if err != nil {
		return nil, err
	}
	if len(infos) == 0 {
		return nil, fmt.Errorf("reconfig: recover: archive %s has no collector metadata", dir)
	}
	r, err := archive.OpenReaderMetrics(dir, reg)
	if err != nil {
		return nil, err
	}
	entries, _ := checkpoint.List(dir) // an unlistable chain is just an absent chain
	var st *FailoverState
	fallbacks := 0
	for i := len(entries) - 1; i >= 0 && st == nil; i-- {
		cp, err := checkpoint.Load(entries[i].Path)
		if err == nil {
			st, err = replay(r, infos, &cp, stmts)
		}
		if err != nil {
			fallbacks++
		}
	}
	if st == nil {
		if st, err = replay(r, infos, nil, stmts); err != nil {
			r.Close()
			return nil, err
		}
	}
	st.Fallbacks = fallbacks
	st.ChainEntries = len(entries)
	finishRepair(st, r)
	return st, nil
}

// replay is the one ladder rung: the monitors' replay and (when
// statements are supplied) the query engine start from cp's snapshot,
// or from nothing when cp is nil, and are all fed from a single scan of
// what the archive holds after that point — the suffix behind
// cp.Cursor, or everything. Any mismatch — roster drift, cursor
// invalidated by retention, torn data before the cursor, evicted rounds
// — errors, and the caller falls back a rung.
func replay(r *archive.Reader, infos []archive.CollectorInfo, cp *checkpoint.Checkpoint, stmts []*query.Stmt) (*FailoverState, error) {
	rep, err := archive.NewReplay(infos, 0)
	if err != nil {
		return nil, err
	}
	if cp != nil {
		if err := rep.Restore(cp.LA, cp.Stats); err != nil {
			return nil, err
		}
	}
	var eng *query.Engine
	if len(stmts) > 0 {
		if cp != nil && !cp.HasEngine {
			// The caller wants the engine recovered but this checkpoint
			// never snapshotted one (it predates the statements). Fall
			// back a rung rather than hand back a cold engine as if it
			// were recovered.
			return nil, fmt.Errorf("reconfig: recover: checkpoint %d has no engine snapshot", cp.Seq)
		}
		eng = query.NewEngine(nil)
		// The coverage() roster must match the crashed recorder's, which
		// was the archived collector set; a snapshot carries its own.
		eng.SetExpected(len(infos))
		for _, s := range stmts {
			if err := eng.Register(s); err != nil {
				return nil, err
			}
		}
		if cp != nil {
			if err := eng.Restore(cp.Engine); err != nil {
				return nil, err
			}
		}
	}
	var cur *archive.Cursor
	if cp != nil {
		cur = &cp.Cursor
	}
	var offerErr error
	scan, err := r.ScanBatches(cur, archive.Query{}, archive.AllColumns, func(batch []collect.TraceTuple) bool {
		for _, t := range batch {
			rep.Feed(t)
		}
		if eng != nil {
			offerErr = eng.Offer(batch)
		}
		return offerErr == nil
	})
	if err != nil {
		return nil, err
	}
	if offerErr != nil {
		return nil, offerErr
	}
	if lost := rep.Lost(); lost > 0 {
		return nil, fmt.Errorf("reconfig: recover: replay evicted %d rounds; the handoff would not be faithful", lost)
	}
	fed, matched, _ := rep.Fed()
	st := &FailoverState{
		Resume:          rep.Resume(),
		Stats:           rep.Tree(),
		RoundsRecovered: rep.Weighted().Total(),
		TuplesFed:       fed,
		TuplesMatched:   matched,
		TuplesSkipped:   scan.TuplesSkipped,
		BytesReplayed:   scan.BytesScanned,
		BytesSkipped:    scan.BytesSkipped,
	}
	if cp != nil {
		st.Checkpointed = true
		st.CheckpointSeq = cp.Seq
	}
	if eng != nil {
		es := eng.State()
		st.Engine = &es
	}
	return st, nil
}

// finishRepair folds the reader's damage report into the handoff and
// releases the reader. Before checkpointed recovery this context was
// silently discarded: the reader was never closed, so header-less
// skipped files went unreported, and torn-tail truncations never
// reached the caller.
func finishRepair(st *FailoverState, r *archive.Reader) {
	for _, s := range r.Segments() {
		if s.Torn {
			st.TornSegments++
			st.RepairedBytes += s.TornBytes
		}
	}
	st.SkippedFiles = r.SkippedFiles()
	st.CloseErr = r.Close()
}
