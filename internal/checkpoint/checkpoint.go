package checkpoint

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"sync"

	"eventspace/internal/archive"
	"eventspace/internal/collect"
	"eventspace/internal/hrtime"
	"eventspace/internal/metrics"
	"eventspace/internal/monitor"
	"eventspace/internal/query"
	"eventspace/internal/vclock"
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
// forwarded downstream first (the archive stays the source of truth),
// then folded into a shadow replay of the load-balance and statistics
// monitors. On cadence it flushes the writer, snapshots the shadow —
// and the live query engine, when one is interposed — at exactly the
// writer's durable cursor, and persists the snapshot as the next chain
// file.
//
// Only the ordered part of that runs on the caller's thread (the
// recorder's gather thread): the forward, the cadence count and, on
// cadence, what must be read at the writer's cursor — the flush, the
// cursor and the engine's state. Decoding the batch into the shadow
// and, on cadence, snapshotting it, encoding, writing and pruning run
// in a job: a registered model goroutine (vclock.Go) that blocks on
// nothing and so takes no virtual time, at most one in flight. Every
// call into the checkpointer — AppendRaw, Checkpoint, Stats, Err —
// first settles a frame in flight: it waits for the job, then goes
// sticky-dead if the frame tore, or else appends the frame's
// OpCheckpoint mark, before anything newer reaches the archive. The
// archive and the chain so get the same bytes in the same order as if
// all of it ran on the caller's thread. A caller that seals the writer
// itself calls Err (or Checkpoint) first.
type Checkpointer struct {
	mu     sync.Mutex
	inner  Sink
	w      *archive.Writer
	engine *query.Engine

	dir     string
	every   uint64
	cps     *archive.CrashPoints
	opWrite *metrics.Op      // checkpoint writes; nil without a registry
	cWrites *metrics.Counter // checkpoints persisted
	run     func()           // c.job, bound once so a launch allocates nothing
	done    chan struct{}    // a job's end; one slot, so the job never waits

	// The caller's side, under mu.
	seq     uint32 // newest chain sequence on disk
	since   uint64
	at      hrtime.Stamp
	err     error
	written uint64
	bytes   uint64
	bufs    [2][]byte // batch copies: the job folds one while the next call fills the other
	flip    int       // the one the next batch goes into
	busy    bool      // a job is in flight

	// The job's side: the job owns it while one is in flight, the
	// caller's thread (under mu) otherwise; busy and done hand it over.
	next   []byte               // the batch the job folds
	fr     frame                // the frame the job persists, when fr.due
	shadow *monitor.Replay      // both monitors' joins, fed every archived tuple
	chain  []uint32             // the sequences on disk, oldest first
	batch  []collect.TraceTuple // decode scratch, reused per batch
	enc    encoder              // encode scratch, reused per checkpoint
}

// frame is one checkpoint on its way to disk. The caller's thread begins
// it with what must be read at the writer's cursor; the job adds the
// shadow's state, writes the file and reports how that went.
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
func New(w *archive.Writer, inner Sink, engine *query.Engine, infos []archive.CollectorInfo, cfg Config) (*Checkpointer, error) {
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
		cps: cfg.CrashPoints, done: make(chan struct{}, 1),
	}
	c.run = c.job
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

// AppendRaw settles a frame in flight, forwards the batch downstream,
// advances the cadence and hands the fold to a job — on cadence, with a
// frame begun at the writer's flushed cursor. After an injected
// checkpoint crash the checkpointer is sticky-dead — the process it
// models died mid-write, so nothing later reaches the archive either.
// The crash surfaces from the call after the one that began the frame.
func (c *Checkpointer) AppendRaw(data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fr.due {
		c.settle() // its mark goes ahead of this batch
	}
	if c.err != nil {
		return c.err
	}
	if err := c.inner.AppendRaw(data); err != nil {
		return err
	}
	if rem := len(data) % tupleSize; rem != 0 {
		return &collect.PartialTupleError{Offset: len(data) - rem, Remaining: rem}
	}
	c.count(data)
	buf := append(c.bufs[c.flip][:0], data...)
	c.bufs[c.flip], c.flip = buf, c.flip^1
	c.settle()
	c.next = buf
	if c.since >= c.every {
		if err := c.begin(); err != nil {
			return err
		}
	}
	c.busy = true
	vclock.Go(c.run)
	return nil
}

// count advances the cadence over a batch of whole tuples: data tuples
// and the newest data stamp, read off each 28-byte record (ECID at byte
// 0, Start at byte 12: collect.TraceTuple.EncodeTo) without decoding it.
func (c *Checkpointer) count(data []byte) {
	for off := 0; off < len(data); off += tupleSize {
		rec := data[off : off+tupleSize]
		if binary.LittleEndian.Uint32(rec[0:4]) == collect.ControlECID {
			continue
		}
		if start := int64(binary.LittleEndian.Uint64(rec[12:20])); start > c.at {
			c.at = start
		}
		c.since++
	}
}

// settle waits for the job in flight, if any, and lands the frame it
// persisted. The wait is a plain channel receive: the job blocks on
// nothing, so the clock, which counts it as running, cannot move while
// the caller waits — and a caller outside the model (a driver stopping
// a recorder) waits the same way.
func (c *Checkpointer) settle() {
	if !c.busy {
		return
	}
	<-c.done
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

// job is the fold's other half, run by vclock.Go: it decodes the batch
// into the shadow and persists the frame, when one is due.
func (c *Checkpointer) job() {
	c.fold(c.next)
	if c.fr.due {
		c.persist()
	}
	c.done <- struct{}{}
}

// fold decodes a batch of whole tuples into the shadow.
func (c *Checkpointer) fold(data []byte) {
	c.batch, _ = collect.DecodeAppend(c.batch[:0], data) // AppendRaw hands over whole tuples only
	for _, t := range c.batch {
		c.shadow.Feed(t)
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
	if err == nil {
		c.cWrites.Inc()
	}
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
	c.written++
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
	return Stats{Seq: c.seq, Written: c.written, Bytes: c.bytes}
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
