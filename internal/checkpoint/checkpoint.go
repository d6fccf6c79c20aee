package checkpoint

import (
	"fmt"
	"sync"

	"eventspace/internal/archive"
	"eventspace/internal/collect"
	"eventspace/internal/hrtime"
	"eventspace/internal/metrics"
	"eventspace/internal/monitor"
	"eventspace/internal/query"
)

// Sink is the raw-batch sink the checkpointer forwards to (the archive
// writer, or a query engine interposed in front of it). It mirrors
// escope.RawSink without importing escope.
type Sink interface {
	AppendRaw(data []byte) error
}

// DefaultEveryTuples is the checkpoint cadence when Config leaves it
// zero: one checkpoint per this many newly archived data tuples.
const DefaultEveryTuples = 4096

// DefaultKeep is the chain length retained on disk. Three rungs give
// the recovery ladder two fallbacks before full replay.
const DefaultKeep = 3

// Config tunes a Checkpointer.
type Config struct {
	// EveryTuples is the cadence: a checkpoint is written after this
	// many newly archived data tuples (0 = DefaultEveryTuples). The
	// cadence is counted in tuples, not time, so checkpoint placement —
	// and therefore the recovered byte stream — is deterministic.
	EveryTuples uint64
	// Keep is how many chain files are retained (0 = DefaultKeep).
	Keep int
	// CrashPoints, when set, arms the CrashCheckpoint injection site on
	// checkpoint writes. Test-only; share the archive writer's plan.
	CrashPoints *archive.CrashPoints
	// Metrics records checkpoint writes (KindCheckpoint); nil disables.
	Metrics *metrics.Registry
}

// Checkpointer interposes on a recorder's sink chain: every batch is
// forwarded downstream first (the archive stays the source of truth),
// then folded into shadow replays of the load-balance and statistics
// monitors. On cadence it flushes the writer, snapshots the shadows —
// and the live query engine, when one is interposed — at exactly the
// writer's durable cursor, and persists the snapshot as the next chain
// file. It runs on the recorder's gather thread (a model goroutine), so
// checkpoint timing is modelled time like everything else.
type Checkpointer struct {
	mu     sync.Mutex
	inner  Sink
	w      *archive.Writer
	engine *query.Engine
	la     *monitor.LastArrivalReplay
	stats  *monitor.StatsReplay

	dir     string
	every   uint64
	keep    int
	cps     *archive.CrashPoints
	opWrite *metrics.Op      // checkpoint writes; nil without a registry
	cWrites *metrics.Counter // checkpoints persisted

	seq     uint32   // newest chain sequence on disk
	chain   []uint32 // the sequences on disk, oldest first
	since   uint64
	at      hrtime.Stamp
	err     error
	written uint64
	bytes   uint64
	batch   []collect.TraceTuple // decode scratch, reused per batch
	enc     encoder              // encode scratch, reused per checkpoint
}

// New builds a checkpointer over a recorder's writer and sink chain.
// inner is what batches are forwarded to (w itself, or a query engine
// writing through to w — pass that engine as engine too so snapshots
// include it). infos is the archived collector metadata; the shadows'
// join wiring derives from it exactly as recovery's replay will.
func New(w *archive.Writer, inner Sink, engine *query.Engine, infos []archive.CollectorInfo, cfg Config) (*Checkpointer, error) {
	if w == nil || inner == nil {
		return nil, fmt.Errorf("checkpoint: nil writer or sink")
	}
	laPorts, err := archive.LastArrivalPorts(infos)
	if err != nil {
		return nil, err
	}
	stPorts, err := archive.StatsPorts(infos)
	if err != nil {
		return nil, err
	}
	la, err := monitor.NewLastArrivalReplay(laPorts)
	if err != nil {
		return nil, err
	}
	// Window 0 (the analysis default) is what recovery's chain-less rung
	// replays with; the shadow must match it.
	stats, err := monitor.NewStatsReplay(stPorts, 0)
	if err != nil {
		return nil, err
	}
	every := cfg.EveryTuples
	if every == 0 {
		every = DefaultEveryTuples
	}
	keep := cfg.Keep
	if keep == 0 {
		keep = DefaultKeep
	}
	c := &Checkpointer{
		inner: inner, w: w, engine: engine, la: la, stats: stats,
		dir: w.Dir(), every: every, keep: max(keep, 1),
		cps: cfg.CrashPoints,
	}
	if reg := cfg.Metrics; reg != nil {
		c.opWrite = reg.Op(metrics.KindCheckpoint, "checkpoint("+c.dir+")")
		c.cWrites = reg.Counter("checkpoint.writes")
	}
	// A reopened directory may already hold a chain: numbering continues
	// after its newest entry, so a new frame is never the one pruned.
	entries, err := List(c.dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		c.chain = append(c.chain, e.Seq)
		c.seq = e.Seq
	}
	return c, nil
}

// AppendRaw forwards the batch downstream, feeds the shadows, and
// checkpoints when the cadence fires. After an injected checkpoint
// crash the checkpointer is sticky-dead — the process it models died
// mid-write, so nothing later reaches the archive either.
func (c *Checkpointer) AppendRaw(data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	if err := c.inner.AppendRaw(data); err != nil {
		return err
	}
	if err := c.fold(data); err != nil {
		return err
	}
	if c.since >= c.every {
		return c.checkpointLocked()
	}
	return nil
}

// fold decodes a batch into the shadows and advances the cadence count.
func (c *Checkpointer) fold(data []byte) error {
	var err error
	c.batch, err = collect.DecodeAppend(c.batch[:0], data)
	if err != nil {
		return err
	}
	for _, t := range c.batch {
		c.la.Feed(t)
		c.stats.Feed(t)
		if t.ECID != collect.ControlECID {
			if t.Start > c.at {
				c.at = t.Start
			}
			c.since++
		}
	}
	return nil
}

// Checkpoint forces a snapshot now, regardless of cadence — the final
// checkpoint a recorder writes while stopping, so recovery after a
// clean seal replays (almost) nothing.
func (c *Checkpointer) Checkpoint() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return c.checkpointLocked()
}

// checkpointLocked writes one checkpoint; a failure is sticky.
func (c *Checkpointer) checkpointLocked() error {
	start := hrtime.Now()
	n, err := c.writeLocked()
	c.opWrite.Record(hrtime.Since(start), n, err)
	if err == nil {
		c.cWrites.Inc()
	}
	c.err = err
	return err
}

func (c *Checkpointer) writeLocked() (int, error) {
	// Flush first: the cursor must cover exactly the durable tuples the
	// snapshot state has seen.
	if err := c.w.Flush(); err != nil {
		return 0, err
	}
	cur := c.w.Position()
	cp := Checkpoint{Seq: c.seq + 1, At: c.at, Cursor: cur, LA: c.la.State(), Stats: c.stats.State()}
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
	// The marker control tuple lands after the cursor, so suffix replay
	// sees it; feed it to the shadows too, keeping them in lockstep with
	// the archive content a recovered shadow would be fed.
	mark := collect.EncodeCheckpointMark(collect.CheckpointMark{Seq: c.seq, Tuples: cur.Tuples, At: c.at})
	if err := c.w.Append([]collect.TraceTuple{mark}); err != nil {
		return n, err
	}
	c.la.Feed(mark)
	c.stats.Feed(mark)
	return n, c.prune()
}

// Stats is a checkpointer's accounting snapshot.
type Stats struct {
	Seq     uint32 // newest chain sequence written
	Written uint64 // checkpoints persisted
	Bytes   uint64 // frame bytes persisted
}

// Stats returns the accounting snapshot.
func (c *Checkpointer) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Seq: c.seq, Written: c.written, Bytes: c.bytes}
}

// Err returns the sticky error, if any (e.g. an injected crash).
func (c *Checkpointer) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}
