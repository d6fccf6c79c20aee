package checkpoint

import (
	"cmp"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"eventspace/internal/archive"
	"eventspace/internal/collect"
	"eventspace/internal/hrtime"
	"eventspace/internal/metrics"
	"eventspace/internal/monitor"
	"eventspace/internal/query"
	"eventspace/internal/vclock"
)

// DefaultEveryTuples is the checkpoint cadence when Config leaves it
// zero: one checkpoint per this many newly archived data tuples.
const DefaultEveryTuples = 4096

// keep is the chain length retained on disk. Three rungs give the
// recovery ladder two fallbacks before full replay.
const keep = 3

// Config tunes a Checkpointer.
type Config struct {
	// EveryTuples is the cadence: a checkpoint is written after this
	// many newly archived data tuples (0 = DefaultEveryTuples). The
	// cadence is counted in tuples, not time, so checkpoint placement —
	// and therefore the recovered byte stream — is deterministic.
	EveryTuples uint64
	// CrashPoints, when set, arms the CrashCheckpoint injection site on
	// checkpoint writes. Test-only; share the archive writer's plan.
	CrashPoints *archive.CrashPoints
	// Metrics records checkpoint writes (KindCheckpoint); nil disables.
	Metrics *metrics.Registry
}

// Checkpointer interposes on a recorder's sink chain: every batch is
// forwarded downstream (the archive stays the source of truth) and
// folded into a shadow replay of the load-balance and statistics
// monitors. On cadence it flushes the writer, snapshots the shadow —
// and the live query engine, when one is interposed — at exactly the
// writer's durable cursor, and persists the snapshot as the next chain
// file.
//
// Only the ordered part of that runs on the caller's thread (the
// recorder's gather thread): one decode of the batch, the forward, the
// cadence count and, on cadence, what must be read at the writer's
// cursor — the flush, the cursor and the engine's state. When inner is
// the writer, or the engine over it, the decoded tuples go to the
// writer's Append and the engine's Eval, so the batch is decoded once
// for the whole chain; any other inner gets the raw bytes. The rest
// runs in jobs:
// registered model goroutines (vclock.Go) that block on nothing and so
// take no virtual time, at most one in flight. A fold job feeds the
// batch to the shadow while the caller's thread forwards it; on
// cadence, once the fold is settled and the frame begun, a persist job
// snapshots the shadow, encodes, writes and prunes while the caller's
// thread goes back to gathering. Every call into the checkpointer —
// AppendRaw, Checkpoint, Stats, Err — first settles the job in flight:
// it waits for it, then goes sticky-dead if the frame tore, or else
// appends the frame's OpCheckpoint mark, before anything newer reaches
// the archive. The archive and the chain so get the same bytes in the
// same order as if all of it ran on the caller's thread. A caller that
// seals the writer itself calls Err (or Checkpoint) first.
type Checkpointer struct {
	mu     sync.Mutex
	inner  query.Sink
	direct bool          // inner is w, or the engine over w: the decoded batch goes to w
	eval   *query.Engine // the engine a direct forward evaluates, when inner is it
	w      *archive.Writer
	engine *query.Engine

	dir     string
	every   uint64
	cps     *archive.CrashPoints
	opWrite *metrics.Op      // checkpoint writes; nil without a registry
	run     func()           // c.job, bound once so a launch allocates nothing
	done    vclock.WaitGroup // the job in flight, until it ends
	written *atomic.Uint64   // frames landed; apart from c, so a registry reading it keeps only it alive

	// The caller's side, under mu.
	seq   uint32 // newest chain sequence on disk
	since uint64
	at    hrtime.Stamp
	err   error
	bytes uint64
	bufs  [2][]collect.TraceTuple // decoded batches: a fold job reads one while the next call fills the other
	flip  int                     // the one the next batch goes into
	busy  bool                    // a job is in flight

	// The jobs' side: a job owns it while one is in flight, the
	// caller's thread (under mu) otherwise; busy and done hand it over.
	next   []collect.TraceTuple // the batch a fold job feeds the shadow
	fr     frame                // the frame a persist job writes: a job is one when fr.due
	shadow *monitor.Replay      // both monitors' joins, fed every archived tuple
	chain  []uint32             // the sequences on disk, oldest first
	enc    encoder              // encode scratch, reused per checkpoint
}

// frame is one checkpoint on its way to disk. The caller's thread begins
// it with what must be read at the writer's cursor; the persist job
// adds the shadow's state, writes the file and reports how that went.
type frame struct {
	due   bool
	start hrtime.Stamp // when the caller's thread began it
	cp    Checkpoint   // Seq, At, Cursor and Engine from the caller's thread, LA and Stats from the job
	n     int          // frame bytes
	err   error        // the write failed or tore: no mark, the checkpointer dies
	prune error        // the frame is whole but pruning the chain failed
}

// New builds a checkpointer over a recorder's writer and sink chain.
// inner is what batches are forwarded to (w itself, or a query engine
// writing through to w — pass that engine as engine too so snapshots
// include it). infos is the archived collector metadata; the shadow's
// join wiring derives from it exactly as recovery's replay will.
func New(w *archive.Writer, inner query.Sink, engine *query.Engine, infos []archive.CollectorInfo, cfg Config) (*Checkpointer, error) {
	if w == nil || inner == nil {
		return nil, fmt.Errorf("checkpoint: nil writer or sink")
	}
	// Window 0 (the analysis default) is what recovery's chain-less rung
	// replays with; the shadow must match it.
	shadow, err := archive.NewReplay(infos, 0)
	if err != nil {
		return nil, err
	}
	every := cfg.EveryTuples
	if every == 0 {
		every = DefaultEveryTuples
	}
	c := &Checkpointer{
		inner: inner, w: w, engine: engine, shadow: shadow,
		dir: w.Dir(), every: every,
		cps:     cfg.CrashPoints,
		written: new(atomic.Uint64),
	}
	switch {
	case inner == query.Sink(w):
		c.direct = true
	case engine != nil && inner == query.Sink(engine) && engine.Sink() == query.Sink(w):
		c.direct, c.eval = true, engine
	}
	c.run = c.job
	if reg := cfg.Metrics; reg != nil {
		c.opWrite = reg.Op(metrics.KindCheckpoint, "checkpoint("+c.dir+")")
		reg.Count("checkpoint.writes", c.written)
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

// AppendRaw decodes the batch, settles the job in flight, starts the
// batch's fold, forwards the batch downstream and advances the cadence —
// on cadence, settling the fold and starting a persist job for a frame
// begun at the writer's flushed cursor. A batch that ends mid-tuple
// goes everywhere up to the tear before the tear's
// *collect.PartialTupleError comes back. A failed forward leaves the
// checkpointer sticky-dead: its shadow has folded a batch the archive
// may not hold, so no frame may be cut from it. So does an injected
// checkpoint crash — the process it models died mid-write, so nothing
// later reaches the archive either; it surfaces from the call after the
// one that began the frame.
func (c *Checkpointer) AppendRaw(data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The other buffer may still be a fold's: decode into this one first.
	batch, tail := collect.DecodeAppend(c.bufs[c.flip][:0], data)
	c.bufs[c.flip] = batch
	c.settle() // a frame's mark goes ahead of this batch
	if c.err != nil {
		return c.err
	}
	c.flip ^= 1
	c.next = batch
	c.launch() // the fold
	if err := c.forward(data, batch); err != nil {
		c.err = err
		return err
	}
	c.count(batch)
	if c.since >= c.every {
		c.settle() // the frame's state is the shadow's as of this batch
		if err := c.begin(); err != nil {
			return err
		}
		c.launch() // the frame's persist
	}
	return tail
}

// forward hands the batch downstream: the decoded tuples to the writer
// and then the engine's evaluation when the chain is theirs alone, the
// bytes to any other inner. A ragged tail is not a failure — the whole
// tuples before it went through, and AppendRaw reports it.
func (c *Checkpointer) forward(data []byte, batch []collect.TraceTuple) error {
	if !c.direct {
		if err := c.inner.AppendRaw(data); err != nil && !errors.As(err, new(*collect.PartialTupleError)) {
			return err
		}
		return nil
	}
	if err := c.w.Append(batch); err != nil {
		return err
	}
	if c.eval != nil {
		return c.eval.Eval(batch)
	}
	return nil
}

// count advances the cadence over a batch: its data tuples and their
// newest stamp.
func (c *Checkpointer) count(batch []collect.TraceTuple) {
	for i := range batch {
		if batch[i].ECID == collect.ControlECID {
			continue
		}
		c.at = max(c.at, batch[i].Start)
		c.since++
	}
}

// launch starts a job; the caller has settled the one before it.
func (c *Checkpointer) launch() {
	c.busy = true
	c.done.Add(1)
	vclock.Go(c.run)
}

// settle waits for the job in flight, if any, and lands the frame it
// persisted. The job blocks on nothing, so it ends at the instant it
// started: a model caller parks on the clock until it has run, and a
// caller outside the model (a driver stopping a recorder) waits for it
// the same way.
func (c *Checkpointer) settle() {
	if !c.busy {
		return
	}
	c.done.Wait()
	c.busy = false
	if c.fr.due {
		c.land()
	}
}

// begin starts a frame on the caller's thread: it flushes the writer and
// takes what must be read at its cursor — the cursor itself, and the
// state of the engine, which the caller's thread goes on feeding.
func (c *Checkpointer) begin() error {
	start := hrtime.Now()
	// Flush first: the cursor must cover exactly the durable tuples the
	// snapshot state has seen.
	if err := c.w.Flush(); err != nil {
		c.opWrite.Record(hrtime.Since(start), 0, err)
		c.err = err
		return err
	}
	c.fr = frame{due: true, start: start, cp: Checkpoint{Seq: c.seq + 1, At: c.at, Cursor: c.w.Position()}}
	if c.engine != nil {
		c.fr.cp.HasEngine, c.fr.cp.Engine = true, c.engine.State()
	}
	c.since = 0
	return nil
}

// job is what vclock.Go runs: with a frame begun, the persist job,
// which writes it behind the gathers that follow; otherwise the fold
// job, which feeds the batch to the shadow behind its forward.
func (c *Checkpointer) job() {
	if c.fr.due {
		c.persist()
	} else {
		c.fold(c.next)
	}
	c.done.Done()
}

// fold feeds decoded tuples to the shadow.
func (c *Checkpointer) fold(batch []collect.TraceTuple) {
	for i := range batch {
		c.shadow.Feed(batch[i])
	}
}

// persist snapshots the shadow into the frame begun on the caller's
// thread, writes the file through the crash seam and prunes the chain.
func (c *Checkpointer) persist() {
	f := &c.fr
	f.cp.LA, f.cp.Stats = c.shadow.State()
	buf := c.enc.encode(f.cp)
	f.n = len(buf)
	if f.err = write(c.dir, f.cp.Seq, buf, c.cps); f.err == nil {
		c.chain = append(c.chain, f.cp.Seq)
		f.prune = c.prune()
	}
	err := cmp.Or(f.err, f.prune)
	c.opWrite.Record(hrtime.Since(f.start), f.n, err)
}

// land finishes a persisted frame on the caller's thread. A torn frame
// leaves no mark and the checkpointer sticky-dead. A whole one gets its
// marker control tuple, behind the frame's cursor, so suffix replay sees
// it; the shadow is fed it too, keeping it in lockstep with the
// archive content a recovered shadow would be fed.
func (c *Checkpointer) land() {
	f := c.fr
	c.fr = frame{}
	if f.err != nil {
		c.err = f.err
		return
	}
	c.seq = f.cp.Seq
	c.written.Add(1)
	c.bytes += uint64(f.n)
	mark := collect.EncodeCheckpointMark(collect.CheckpointMark{Seq: c.seq, Tuples: f.cp.Cursor.Tuples, At: f.cp.At})
	if err := c.w.Append([]collect.TraceTuple{mark}); err != nil {
		c.err = err
		return
	}
	c.shadow.Feed(mark)
	c.err = f.prune
}

// Checkpoint forces a snapshot now, regardless of cadence — the final
// checkpoint a recorder writes while stopping, so recovery after a
// clean seal replays (almost) nothing. It settles the job in flight
// first and writes the frame on the caller's thread, so when it returns
// nothing is in flight and the writer may be sealed.
func (c *Checkpointer) Checkpoint() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.settle()
	if c.err != nil {
		return c.err
	}
	if err := c.begin(); err != nil {
		return err
	}
	c.persist()
	c.land()
	return c.err
}

// Stats is a checkpointer's accounting snapshot.
type Stats struct {
	Seq     uint32 // newest chain sequence written
	Written uint64 // checkpoints persisted
	Bytes   uint64 // frame bytes persisted
}

// Stats settles the job in flight, then returns the accounting snapshot.
func (c *Checkpointer) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.settle()
	return Stats{Seq: c.seq, Written: c.written.Load(), Bytes: c.bytes}
}

// Err settles the job in flight, then returns the sticky error, if any
// (e.g. an injected crash). Settling appends a landed frame's mark to
// the writer, so a caller that seals the writer without Checkpoint calls
// Err first.
func (c *Checkpointer) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.settle()
	return c.err
}
