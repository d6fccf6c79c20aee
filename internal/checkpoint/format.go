// Package checkpoint bounds front-end recovery time: instead of
// replaying a crashed front end's whole trace archive, recovery loads
// the newest valid checkpoint — a deterministic snapshot of the
// monitor-replay shadows, the continuous-query engine, and the archive
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
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"eventspace/internal/analysis"
	"eventspace/internal/archive"
	"eventspace/internal/collect"
	"eventspace/internal/hrtime"
	"eventspace/internal/monitor"
	"eventspace/internal/query"
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
	// LA and Stats are the monitor-replay shadows.
	LA    monitor.LastArrivalState
	Stats monitor.StatsState
	// Engine is the continuous-query engine snapshot; HasEngine is false
	// for recorders without standing queries.
	HasEngine bool
	Engine    query.EngineState
}

// File framing. A checkpoint file is a 24-byte header followed by the
// CRC'd payload:
//
//	[0:4]   magic "ECK1"
//	[4:6]   version (1), little-endian
//	[6:8]   flags (bit 0: engine section present)
//	[8:12]  chain sequence
//	[12:16] payload length
//	[16:20] payload CRC32 (IEEE)
//	[20:24] header CRC32 over bytes [0:20]
//
// The payload is a sequence of sections, each `id u16, len u32, body`.
// All integers are little-endian; floats are IEEE-754 bit patterns.
// Everything is written in one canonical order with sorted keys, so two
// checkpoints of identical state are bit-identical.
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

var magic = [4]byte{'E', 'C', 'K', '1'}

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

// codec walks a frame's fields in one direction, so every section below
// lists its fields once and that one walk is both its encoder and its
// decoder. Writing (w) appends each field to buf. Reading consumes it
// from buf[off:] and validates the remaining length first: a torn or
// bit-flipped payload sets err — after which every field reads as zero
// — and never panics.
type codec struct {
	buf []byte
	off int // read cursor
	w   bool
	err error
}

func (c *codec) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: truncated %s at offset %d", ErrInvalid, what, c.off)
	}
}

// take consumes the next n bytes of a read; nil once the walk has failed.
func (c *codec) take(n int) []byte {
	if c.err == nil && n > len(c.buf)-c.off {
		c.fail("field")
	}
	if c.err != nil {
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

// word carries an n-byte little-endian integer: a write appends v, a
// read returns the one it consumed.
func (c *codec) word(n int, v uint64) uint64 {
	if c.w {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, v)[:len(c.buf)+n]
		return v
	}
	var b [8]byte
	copy(b[:], c.take(n))
	return binary.LittleEndian.Uint64(b[:])
}

// put stores what a read produced; a write leaves the caller's state
// untouched.
func put[T any](c *codec, dst *T, v T) {
	if !c.w {
		*dst = v
	}
}

func (c *codec) u8(v *uint8)    { put(c, v, uint8(c.word(1, uint64(*v)))) }
func (c *codec) u16(v *uint16)  { put(c, v, uint16(c.word(2, uint64(*v)))) }
func (c *codec) u32(v *uint32)  { put(c, v, uint32(c.word(4, uint64(*v)))) }
func (c *codec) u64(v *uint64)  { put(c, v, c.word(8, *v)) }
func (c *codec) i32(v *int32)   { put(c, v, int32(c.word(4, uint64(uint32(*v))))) }
func (c *codec) i64(v *int64)   { put(c, v, int64(c.word(8, uint64(*v)))) }
func (c *codec) f64(v *float64) { put(c, v, math.Float64frombits(c.word(8, math.Float64bits(*v)))) }

// int is a count or bound the snapshot types hold as an int: an i32 on disk.
func (c *codec) int(v *int) { put(c, v, int(int32(c.word(4, uint64(uint32(*v)))))) }

func (c *codec) bool(v *bool) {
	var u uint8
	if *v {
		u = 1
	}
	put(c, v, c.word(1, uint64(u)) != 0)
}

func (c *codec) str(s *string) {
	n := c.word(2, uint64(len(*s)))
	if c.w {
		c.buf = append(c.buf, *s...)
	} else if b := c.take(int(n)); b != nil {
		*s = string(b)
	}
}

func (c *codec) tuple(t *collect.TraceTuple) {
	if c.w {
		c.buf = slices.Grow(c.buf, tupleSize)[:len(c.buf)+tupleSize]
		t.EncodeTo(c.buf[len(c.buf)-tupleSize:])
	} else if b := c.take(tupleSize); b != nil {
		*t, _ = collect.Decode(b) // fails on a short buffer only, and b is a whole tuple
	}
}

// count carries a list's length. A read refuses a count whose elements,
// at no less than minSize encoded bytes apiece, cannot fit in the bytes
// that remain — before anything is allocated, which is what keeps a
// fuzzed frame from demanding gigabytes.
func (c *codec) count(n, minSize int) int {
	u := c.word(4, uint64(n))
	if !c.w && c.err == nil && u*uint64(minSize) > uint64(len(c.buf)-c.off) {
		c.fail("element count")
	}
	if c.err != nil {
		return 0
	}
	return int(u)
}

// list walks a counted list with elem, one call per element. It is the
// one place a zero count is handled: an empty list reads back as nil.
func list[T any](c *codec, s *[]T, minSize int, elem func(*codec, *T)) {
	n := c.count(len(*s), minSize)
	if !c.w && n > 0 {
		*s = make([]T, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		elem(c, &(*s)[i])
	}
}

// tuples is list(c, ts, tupleSize, (*codec).tuple) a block at a time.
func (c *codec) tuples(ts *[]collect.TraceTuple) {
	n := c.count(len(*ts), tupleSize)
	if c.w {
		c.buf = slices.Grow(c.buf, n*tupleSize)
		c.buf = c.buf[:len(c.buf)+encodeTuples(c.buf[len(c.buf):len(c.buf)+n*tupleSize], *ts)]
	} else if b := c.take(n * tupleSize); n > 0 && b != nil {
		out, err := collect.DecodeAppend(make([]collect.TraceTuple, 0, n), b)
		if err != nil {
			c.fail("tuple block")
		}
		*ts = out
	}
}

// Section bodies.

func cursor(c *codec, cp *Checkpoint) {
	c.i64(&cp.At)
	c.u64(&cp.Cursor.Tuples)
	c.u32(&cp.Cursor.Segment)
	c.u64(&cp.Cursor.SegTuples)
}

func contrib(c *codec, cs *analysis.ContribState) {
	c.i32(&cs.ID)
	c.tuple(&cs.Tuple)
}

func lbRound(c *codec, r *monitor.LBJoinRoundState) {
	c.u32(&r.Seq)
	list(c, &r.Contribs, contribMin, contrib)
}

func lbJoin(c *codec, j *monitor.LBJoinState) {
	c.int(&j.K)
	c.int(&j.MaxPending)
	c.u64(&j.Lost)
	c.u32(&j.Floor)
	c.u32(&j.MaxDone)
	list(c, &j.Pending, lbRoundMin, lbRound)
}

func weighted(c *codec, w *monitor.WeightedCount) {
	c.str(&w.Node)
	c.i32(&w.Contributor)
	c.u64(&w.Count)
}

func namedJoin(c *codec, nj *monitor.NamedLBJoinState) {
	c.str(&nj.Node)
	lbJoin(c, &nj.Join)
}

func la(c *codec, st *monitor.LastArrivalState) {
	c.u64(&st.Fed)
	c.u64(&st.Matched)
	list(c, &st.Weighted, 2+4+8, weighted)
	list(c, &st.Joins, 2+lbJoinMin, namedJoin)
}

func round(c *codec, r *analysis.RoundState) {
	c.u32(&r.Seq)
	c.bool(&r.HaveColl)
	c.tuple(&r.Collective)
	list(c, &r.Contribs, contribMin, contrib)
}

func joiner(c *codec, j *analysis.JoinerState) {
	c.int(&j.K)
	c.int(&j.MaxPending)
	c.u64(&j.Lost)
	list(c, &j.Pending, roundMin, round)
}

func stream(c *codec, s *analysis.StreamState) {
	c.u64(&s.N)
	c.f64(&s.Mean)
	c.f64(&s.M2)
	c.f64(&s.Min)
	c.f64(&s.Max)
	c.int(&s.Window)
	list(c, &s.Ring, 8, (*codec).f64)
}

func statsNode(c *codec, ns *monitor.StatsNodeState) {
	c.u32(&ns.NodeID)
	c.u64(&ns.Rounds)
	joiner(c, &ns.Joiner)
	stream(c, &ns.Down)
	stream(c, &ns.Up)
	stream(c, &ns.Total)
	stream(c, &ns.ArrWait)
	stream(c, &ns.DepWait)
}

func stats(c *codec, st *monitor.StatsState) {
	c.int(&st.Window)
	c.u64(&st.Fed)
	c.u64(&st.Matched)
	list(c, &st.Nodes, statsNodeMin, statsNode)
}

func alert(c *codec, a *collect.AlertTuple) {
	c.u64(&a.QueryHash)
	c.u16(&a.Group)
	c.u32(&a.Seq)
	c.i64(&a.At)
}

func streak(c *codec, gs *query.GroupStreak) {
	c.u16(&gs.Group)
	c.i32(&gs.Count)
}

func standing(c *codec, q *query.StandingState) {
	c.u64(&q.Hash)
	c.bool(&q.Anchored)
	c.i64(&q.LastTick)
	list(c, &q.Streak, 2+4, streak)
	list(c, &q.Fired, 2, (*codec).u16)
}

func engine(c *codec, st *query.EngineState) {
	c.int(&st.Expected)
	c.i64(&st.Watermark)
	c.u32(&st.Seq)
	c.tuples(&st.Buf)
	list(c, &st.Alerts, alertSize, alert)
	list(c, &st.Queries, standingMin, standing)
}

// section walks section id's body over cp, in c's direction; false for
// an id this version does not know.
func (cp *Checkpoint) section(c *codec, id uint16) bool {
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

// Encode frames a checkpoint into its on-disk byte form.
func Encode(cp Checkpoint) []byte { return new(codec).encode(cp) }

// encode overwrites c's buffer with cp's frame and returns it, growing
// the buffer only when its capacity falls short: a checkpointer encodes
// every frame of a run through one codec. Each section's length, like
// the frame header, is filled in once its body has been walked.
func (c *codec) encode(cp Checkpoint) []byte {
	c.buf, c.w = slices.Grow(c.buf[:0], headerSize)[:headerSize], true
	ids, flags := []uint16{secCursor, secLA, secStats, secEngine}, uint16(flagEngine)
	if !cp.HasEngine {
		ids, flags = ids[:3], 0
	}
	for _, id := range ids {
		c.u16(&id)
		body := len(c.buf) + 4
		c.buf = append(c.buf, 0, 0, 0, 0)
		cp.section(c, id)
		binary.LittleEndian.PutUint32(c.buf[body-4:], uint32(len(c.buf)-body))
	}
	buf := c.buf
	copy(buf[0:4], magic[:])
	binary.LittleEndian.PutUint16(buf[4:6], version)
	binary.LittleEndian.PutUint16(buf[6:8], flags)
	binary.LittleEndian.PutUint32(buf[8:12], cp.Seq)
	binary.LittleEndian.PutUint32(buf[12:16], uint32(len(buf)-headerSize))
	binary.LittleEndian.PutUint32(buf[16:20], crc32.ChecksumIEEE(buf[headerSize:]))
	binary.LittleEndian.PutUint32(buf[20:24], crc32.ChecksumIEEE(buf[0:20]))
	return buf
}

// Decode parses a framed checkpoint, validating both CRCs and every
// field bound. Any tear, truncation, or corruption yields ErrInvalid.
func Decode(buf []byte) (Checkpoint, error) {
	var cp Checkpoint
	if len(buf) < headerSize {
		return cp, fmt.Errorf("%w: %d-byte frame shorter than the header", ErrInvalid, len(buf))
	}
	if [4]byte(buf[0:4]) != magic {
		return cp, fmt.Errorf("%w: bad magic", ErrInvalid)
	}
	if got, want := crc32.ChecksumIEEE(buf[0:20]), binary.LittleEndian.Uint32(buf[20:24]); got != want {
		return cp, fmt.Errorf("%w: header CRC %08x, want %08x", ErrInvalid, got, want)
	}
	if v := binary.LittleEndian.Uint16(buf[4:6]); v != version {
		return cp, fmt.Errorf("%w: version %d", ErrInvalid, v)
	}
	flags := binary.LittleEndian.Uint16(buf[6:8])
	cp.Seq = binary.LittleEndian.Uint32(buf[8:12])
	payloadLen := binary.LittleEndian.Uint32(buf[12:16])
	if payloadLen > maxPayload || int(payloadLen) != len(buf)-headerSize {
		return cp, fmt.Errorf("%w: payload length %d, frame holds %d", ErrInvalid, payloadLen, len(buf)-headerSize)
	}
	payload := buf[headerSize:]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(buf[16:20]); got != want {
		return cp, fmt.Errorf("%w: payload CRC %08x, want %08x", ErrInvalid, got, want)
	}

	var have uint // bit id: section id was decoded
	for off := 0; off < len(payload); {
		if off+6 > len(payload) {
			return cp, fmt.Errorf("%w: truncated section header", ErrInvalid)
		}
		id := binary.LittleEndian.Uint16(payload[off:])
		n := int(binary.LittleEndian.Uint32(payload[off+2:]))
		off += 6
		if n < 0 || off+n > len(payload) {
			return cp, fmt.Errorf("%w: section %d overruns payload", ErrInvalid, id)
		}
		if have&(1<<id) != 0 {
			return cp, fmt.Errorf("%w: section %d appears twice", ErrInvalid, id)
		}
		d := &codec{buf: payload[off : off+n]}
		// Unknown sections are skipped for forward compatibility; the
		// payload CRC already vouched for their bytes.
		if cp.section(d, id) {
			if d.err != nil {
				return cp, d.err
			}
			if d.off != n {
				return cp, fmt.Errorf("%w: section %d decoded %d of %d bytes", ErrInvalid, id, d.off, n)
			}
			have |= 1 << id
		}
		off += n
	}
	const required = 1<<secCursor | 1<<secLA | 1<<secStats
	if have&required != required {
		return cp, fmt.Errorf("%w: missing required section", ErrInvalid)
	}
	cp.HasEngine = have&(1<<secEngine) != 0
	if cp.HasEngine != (flags&flagEngine != 0) {
		return cp, fmt.Errorf("%w: engine section does not match header flags", ErrInvalid)
	}
	return cp, nil
}
