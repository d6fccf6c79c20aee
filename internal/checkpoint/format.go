// Package checkpoint bounds front-end recovery time: instead of
// replaying a crashed front end's whole trace archive, recovery loads
// the newest valid checkpoint — a deterministic snapshot of the
// monitor-replay shadow, the continuous-query engine, and the archive
// cursor they cover — and replays only the archive suffix written after
// it. Checkpoints are sidecar files (ckpt-*.eckpt) next to the archive
// segments, CRC-framed so torn or bit-flipped frames are detected and
// skipped, never trusted: a damaged chain degrades recovery time (older
// checkpoint, longer suffix, ultimately full replay), never its result.
//
// The equivalence contract is inherited from the state snapshots it
// persists (analysis/state.go, monitor/state.go, query/state.go): a
// restored shadow fed the archive suffix after the checkpoint's cursor
// ends byte-identical to a full replay of the whole archive.
package checkpoint

import (
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"eventspace/internal/analysis"
	"eventspace/internal/archive"
	"eventspace/internal/collect"
	"eventspace/internal/hrtime"
	"eventspace/internal/monitor"
	"eventspace/internal/query"
	"eventspace/internal/wire"
)

// Checkpoint is one recovery snapshot: the archive cursor it covers and
// the front-end state as of exactly that cursor.
type Checkpoint struct {
	// Seq is the checkpoint's chain sequence number (1-based).
	Seq uint32
	// At is the stamp of the newest data tuple folded into the snapshot.
	At hrtime.Stamp
	// Cursor is the durable archive position the snapshot covers:
	// recovery replays only tuples after it.
	Cursor archive.Cursor
	// LA and Stats are the monitor-replay shadow's snapshot pair
	// (monitor.Replay.State).
	LA    monitor.LastArrivalState
	Stats monitor.StatsState
	// Engine is the continuous-query engine snapshot; HasEngine is false
	// for recorders without standing queries.
	HasEngine bool
	Engine    query.EngineState
}

// File framing. A checkpoint file is a 24-byte header (frameHeader.walk)
// followed by the CRC'd payload: a sequence of sections, each
// `id u16, len u32, body`, walked by Checkpoint.section. All integers are
// little-endian; floats are IEEE-754 bit patterns. Everything is written
// in one canonical order with sorted keys, so two checkpoints of
// identical state are bit-identical.
const (
	headerSize = 24
	version    = 1

	flagEngine = 1 << 0

	secCursor = 1
	secLA     = 2
	secStats  = 3
	secEngine = 4

	// maxPayload caps how large a payload a decoder will even consider:
	// torn headers must not provoke giant allocations.
	maxPayload = 1 << 30
)

// magic is "ECK1" read as a little-endian u32.
const magic = 'E' | 'C'<<8 | 'K'<<16 | '1'<<24

// ErrInvalid reports a torn, truncated, or CRC-corrupt checkpoint
// frame. Callers skip the frame and fall back to an older checkpoint
// (or full replay); they never trust partial contents.
var ErrInvalid = errors.New("checkpoint: invalid or torn checkpoint")

// Encoded sizes: a trace tuple's, and the smallest each list element
// below can have (its fixed fields and the counts of its own lists) —
// what count holds a length read from disk against.
const (
	tupleSize    = collect.TupleSize // 28
	alertSize    = 8 + 2 + 4 + 8     // QueryHash, Group, Seq, At
	contribMin   = 4 + tupleSize
	lbRoundMin   = 4 + 4
	lbJoinMin    = 4 + 4 + 8 + 4 + 4 + 4
	roundMin     = 4 + 1 + tupleSize + 4
	joinerMin    = 4 + 4 + 8 + 4
	streamMin    = 8 + 4*8 + 4 + 4
	statsNodeMin = 4 + 8 + joinerMin + 5*streamMin
	standingMin  = 8 + 1 + 8 + 4 + 4
)

//lint:hotpath checkpoint tuple-block encode; gated by BenchmarkCheckpointEncodeTuples' zero-alloc check
func encodeTuples(dst []byte, ts []collect.TraceTuple) int {
	off := 0
	for i := range ts {
		ts[i].EncodeTo(dst[off:])
		off += tupleSize
	}
	return off
}

// tuple carries one trace tuple in its 28-byte collector layout.
func tuple(c *wire.Codec, t *collect.TraceTuple) {
	if b := c.Next(tupleSize); c.Writing() {
		t.EncodeTo(b)
	} else if b != nil {
		*t, _ = collect.Decode(b) // fails on a short buffer only, and b is a whole tuple
	}
}

// tuples is wire.List(c, ts, tupleSize, tuple) a block at a time.
func tuples(c *wire.Codec, ts *[]collect.TraceTuple) {
	n := c.Count(len(*ts), tupleSize)
	if b := c.Next(n * tupleSize); c.Writing() {
		encodeTuples(b, *ts)
	} else if n > 0 && b != nil {
		// DecodeAppend fails on a ragged buffer only, and b is whole tuples.
		*ts, _ = collect.DecodeAppend(make([]collect.TraceTuple, 0, n), b)
	}
}

// Section bodies.

func cursor(c *wire.Codec, cp *Checkpoint) {
	c.I64(&cp.At)
	c.U64(&cp.Cursor.Tuples)
	c.U32(&cp.Cursor.Segment)
	c.U64(&cp.Cursor.SegTuples)
}

func contrib(c *wire.Codec, cs *analysis.ContribState) {
	c.I32(&cs.ID)
	tuple(c, &cs.Tuple)
}

func lbRound(c *wire.Codec, r *monitor.LBJoinRoundState) {
	c.U32(&r.Seq)
	wire.List(c, &r.Contribs, contribMin, contrib)
}

func lbJoin(c *wire.Codec, j *monitor.LBJoinState) {
	c.Int(&j.K)
	c.Int(&j.MaxPending)
	c.U64(&j.Lost)
	c.U32(&j.Floor)
	c.U32(&j.MaxDone)
	wire.List(c, &j.Pending, lbRoundMin, lbRound)
}

func weighted(c *wire.Codec, w *monitor.WeightedCount) {
	c.Str(&w.Node)
	c.I32(&w.Contributor)
	c.U64(&w.Count)
}

func namedJoin(c *wire.Codec, nj *monitor.NamedLBJoinState) {
	c.Str(&nj.Node)
	lbJoin(c, &nj.Join)
}

func la(c *wire.Codec, st *monitor.LastArrivalState) {
	c.U64(&st.Fed)
	c.U64(&st.Matched)
	wire.List(c, &st.Weighted, 2+4+8, weighted)
	wire.List(c, &st.Joins, 2+lbJoinMin, namedJoin)
}

func round(c *wire.Codec, r *analysis.RoundState) {
	c.U32(&r.Seq)
	c.Bool(&r.HaveColl)
	tuple(c, &r.Collective)
	wire.List(c, &r.Contribs, contribMin, contrib)
}

func joiner(c *wire.Codec, j *analysis.JoinerState) {
	c.Int(&j.K)
	c.Int(&j.MaxPending)
	c.U64(&j.Lost)
	wire.List(c, &j.Pending, roundMin, round)
}

func stream(c *wire.Codec, s *analysis.StreamState) {
	c.U64(&s.N)
	c.F64(&s.Mean)
	c.F64(&s.M2)
	c.F64(&s.Min)
	c.F64(&s.Max)
	c.Int(&s.Window)
	wire.List(c, &s.Ring, 8, (*wire.Codec).F64)
}

func statsNode(c *wire.Codec, ns *monitor.StatsNodeState) {
	c.U32(&ns.NodeID)
	c.U64(&ns.Rounds)
	joiner(c, &ns.Joiner)
	stream(c, &ns.Down)
	stream(c, &ns.Up)
	stream(c, &ns.Total)
	stream(c, &ns.ArrWait)
	stream(c, &ns.DepWait)
}

func stats(c *wire.Codec, st *monitor.StatsState) {
	c.Int(&st.Window)
	c.U64(&st.Fed)
	c.U64(&st.Matched)
	wire.List(c, &st.Nodes, statsNodeMin, statsNode)
}

func alert(c *wire.Codec, a *collect.AlertTuple) {
	c.U64(&a.QueryHash)
	c.U16(&a.Group)
	c.U32(&a.Seq)
	c.I64(&a.At)
}

func streak(c *wire.Codec, gs *query.GroupStreak) {
	c.U16(&gs.Group)
	c.I32(&gs.Count)
}

func standing(c *wire.Codec, q *query.StandingState) {
	c.U64(&q.Hash)
	c.Bool(&q.Anchored)
	c.I64(&q.LastTick)
	wire.List(c, &q.Streak, 2+4, streak)
	wire.List(c, &q.Fired, 2, (*wire.Codec).U16)
}

func engine(c *wire.Codec, st *query.EngineState) {
	c.Int(&st.Expected)
	c.I64(&st.Watermark)
	c.U32(&st.Seq)
	tuples(c, &st.Buf)
	wire.List(c, &st.Alerts, alertSize, alert)
	wire.List(c, &st.Queries, standingMin, standing)
}

// section walks section id's body over cp, in c's direction; false for
// an id this version does not know.
func (cp *Checkpoint) section(c *wire.Codec, id uint16) bool {
	switch id {
	case secCursor:
		cursor(c, cp)
	case secLA:
		la(c, &cp.LA)
	case secStats:
		stats(c, &cp.Stats)
	case secEngine:
		engine(c, &cp.Engine)
	default:
		return false
	}
	return true
}

// frameHeader is a checkpoint file's fixed front.
type frameHeader struct {
	magic, seq, length, payloadCRC uint32
	version, flags                 uint16
}

// walk is the header's one declaration:
//
//	[0:4]   magic "ECK1"
//	[4:6]   version (1)
//	[6:8]   flags (bit 0: engine section present)
//	[8:12]  chain sequence
//	[12:16] payload length
//	[16:20] payload CRC32 (IEEE)
//	[20:24] header CRC32 over bytes [0:20]
func (h *frameHeader) walk(c *wire.Codec) {
	c.U32(&h.magic)
	c.U16(&h.version)
	c.U16(&h.flags)
	c.U32(&h.seq)
	c.U32(&h.length)
	c.U32(&h.payloadCRC)
	c.CRC32(0)
}

// Encode frames a checkpoint into its on-disk byte form.
func Encode(cp Checkpoint) []byte { return new(encoder).encode(cp) }

// encoder encodes every frame of a run into one kept buffer, growing it
// only when its capacity falls short. It keeps the walk's Codec too: the
// section walks hand it to list elements, which would move a local one
// to the heap on every frame.
type encoder struct{ c wire.Codec }

// encode overwrites the encoder's buffer with cp's frame and returns it.
// Each section's length, like the frame header, is filled in once its
// body has been walked.
func (e *encoder) encode(cp Checkpoint) []byte {
	c := &e.c
	*c = wire.Writer(slices.Grow(c.Bytes()[:0], headerSize)[:headerSize])
	ids, h := []uint16{secCursor, secLA, secStats, secEngine}, frameHeader{magic: magic, version: version, seq: cp.Seq, flags: flagEngine}
	if !cp.HasEngine {
		ids, h.flags = ids[:3], 0
	}
	for _, id := range ids {
		c.U16(&id)
		at := c.Pos()
		c.Pad(4) // the body's length
		cp.section(c, id)
		c.Fill32(at, uint32(c.Pos()-at-4))
	}
	buf := c.Bytes()
	h.length, h.payloadCRC = uint32(len(buf)-headerSize), crc32.ChecksumIEEE(buf[headerSize:])
	hc := wire.Writer(buf[:0])
	h.walk(&hc)
	return buf
}

// Decode parses a framed checkpoint, validating both CRCs and every
// field bound. Any tear, truncation, or corruption yields ErrInvalid.
func Decode(buf []byte) (Checkpoint, error) {
	var cp Checkpoint
	var h frameHeader
	hc := wire.Reader(buf)
	switch h.walk(&hc); {
	case h.magic != magic:
		return cp, fmt.Errorf("%w: bad magic", ErrInvalid)
	case hc.Err() != nil:
		return cp, fmt.Errorf("%w: header: %v", ErrInvalid, hc.Err())
	case h.version != version:
		return cp, fmt.Errorf("%w: version %d", ErrInvalid, h.version)
	case h.length > maxPayload || int(h.length) != len(buf)-headerSize:
		return cp, fmt.Errorf("%w: payload length %d, frame holds %d", ErrInvalid, h.length, len(buf)-headerSize)
	case crc32.ChecksumIEEE(buf[headerSize:]) != h.payloadCRC:
		return cp, fmt.Errorf("%w: payload CRC mismatch", ErrInvalid)
	}
	cp.Seq = h.seq
	var have uint // bit id: section id was decoded
	for p := wire.Reader(buf[headerSize:]); p.Pos() < int(h.length); {
		var id uint16
		var n uint32
		p.U16(&id)
		p.U32(&n)
		d := wire.Reader(p.Next(int(n)))
		switch {
		case p.Err() != nil:
			return cp, fmt.Errorf("%w: section %d overruns payload: %v", ErrInvalid, id, p.Err())
		case have&(1<<id) != 0:
			return cp, fmt.Errorf("%w: section %d appears twice", ErrInvalid, id)
		case !cp.section(&d, id):
			// Unknown sections are skipped for forward compatibility; the
			// payload CRC already vouched for their bytes.
		case d.Err() != nil:
			return cp, fmt.Errorf("%w: section %d: %v", ErrInvalid, id, d.Err())
		case d.Pos() != int(n):
			return cp, fmt.Errorf("%w: section %d decoded %d of %d bytes", ErrInvalid, id, d.Pos(), n)
		default:
			have |= 1 << id
		}
	}
	const required = 1<<secCursor | 1<<secLA | 1<<secStats
	if have&required != required {
		return cp, fmt.Errorf("%w: missing required section", ErrInvalid)
	}
	cp.HasEngine = have&(1<<secEngine) != 0
	if cp.HasEngine != (h.flags&flagEngine != 0) {
		return cp, fmt.Errorf("%w: engine section does not match header flags", ErrInvalid)
	}
	return cp, nil
}
