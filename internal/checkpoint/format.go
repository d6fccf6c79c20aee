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

const (
	tupleSize = collect.TupleSize // 28
	alertSize = 8 + 2 + 4 + 8     // QueryHash, Group, Seq, At
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

// enc is a fixed-offset writer over a pre-sized buffer. Encoding is
// two-pass — encodedSize then encode — so the hot section writers never
// allocate or grow.
type enc struct {
	buf []byte
	off int
}

func (e *enc) u8(v uint8)    { e.buf[e.off] = v; e.off++ }
func (e *enc) u16(v uint16)  { binary.LittleEndian.PutUint16(e.buf[e.off:], v); e.off += 2 }
func (e *enc) u32(v uint32)  { binary.LittleEndian.PutUint32(e.buf[e.off:], v); e.off += 4 }
func (e *enc) u64(v uint64)  { binary.LittleEndian.PutUint64(e.buf[e.off:], v); e.off += 8 }
func (e *enc) i32(v int32)   { e.u32(uint32(v)) }
func (e *enc) i64(v int64)   { e.u64(uint64(v)) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) str(s string) {
	e.u16(uint16(len(s)))
	copy(e.buf[e.off:], s)
	e.off += len(s)
}
func (e *enc) tuple(t collect.TraceTuple) {
	t.EncodeTo(e.buf[e.off:])
	e.off += tupleSize
}
func (e *enc) tuples(ts []collect.TraceTuple) {
	e.u32(uint32(len(ts)))
	e.off += encodeTuples(e.buf[e.off:], ts)
}

// dec is the bounds-checked mirror of enc. Every read validates the
// remaining length first, so torn or bit-flipped payloads yield errors,
// never panics; counts are checked against the bytes that must follow
// before anything is allocated.
type dec struct {
	buf []byte
	off int
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated %s at offset %d", ErrInvalid, what, d.off)
	}
}

func (d *dec) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.off+n > len(d.buf) {
		d.fail("field")
		return false
	}
	return true
}

func (d *dec) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *dec) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

func (d *dec) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *dec) i32() int32   { return int32(d.u32()) }
func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) str() string {
	n := int(d.u16())
	if !d.need(n) {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// count reads an element count and refuses one that cannot fit in the
// remaining bytes at entrySize bytes per element — the allocation guard
// that keeps fuzzed frames from demanding gigabytes.
func (d *dec) count(entrySize int) int {
	n := int(d.u32())
	if d.err != nil {
		return 0
	}
	if n < 0 || n*entrySize > len(d.buf)-d.off {
		d.fail("element count")
		return 0
	}
	return n
}

func (d *dec) tuple() collect.TraceTuple {
	if !d.need(tupleSize) {
		return collect.TraceTuple{}
	}
	out, err := collect.DecodeAppend(nil, d.buf[d.off:d.off+tupleSize])
	if err != nil || len(out) != 1 {
		d.fail("tuple")
		return collect.TraceTuple{}
	}
	d.off += tupleSize
	return out[0]
}

func (d *dec) tuples() []collect.TraceTuple {
	n := d.count(tupleSize)
	if d.err != nil || n == 0 {
		return nil
	}
	out, err := collect.DecodeAppend(make([]collect.TraceTuple, 0, n), d.buf[d.off:d.off+n*tupleSize])
	if err != nil {
		d.fail("tuple block")
		return nil
	}
	d.off += n * tupleSize
	return out
}

// Section bodies.

func cursorSize() int { return 8 + 8 + 4 + 8 }

func encodeCursor(e *enc, at hrtime.Stamp, c archive.Cursor) {
	e.i64(int64(at))
	e.u64(c.Tuples)
	e.u32(c.Segment)
	e.u64(c.SegTuples)
}

func decodeCursor(d *dec) (hrtime.Stamp, archive.Cursor) {
	at := hrtime.Stamp(d.i64())
	var c archive.Cursor
	c.Tuples = d.u64()
	c.Segment = d.u32()
	c.SegTuples = d.u64()
	return at, c
}

func contribsSize(cs []analysis.ContribState) int { return 4 + len(cs)*(4+tupleSize) }

func encodeContribs(e *enc, cs []analysis.ContribState) {
	e.u32(uint32(len(cs)))
	for _, c := range cs {
		e.i32(c.ID)
		e.tuple(c.Tuple)
	}
}

func decodeContribs(d *dec) []analysis.ContribState {
	n := d.count(4 + tupleSize)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]analysis.ContribState, 0, n)
	for i := 0; i < n; i++ {
		id := d.i32()
		out = append(out, analysis.ContribState{ID: id, Tuple: d.tuple()})
	}
	return out
}

func lbJoinSize(j monitor.LBJoinState) int {
	n := 4 + 4 + 8 + 4 + 4 + 4
	for _, r := range j.Pending {
		n += 4 + contribsSize(r.Contribs)
	}
	return n
}

func encodeLBJoin(e *enc, j monitor.LBJoinState) {
	e.i32(int32(j.K))
	e.i32(int32(j.MaxPending))
	e.u64(j.Lost)
	e.u32(j.Floor)
	e.u32(j.MaxDone)
	e.u32(uint32(len(j.Pending)))
	for _, r := range j.Pending {
		e.u32(r.Seq)
		encodeContribs(e, r.Contribs)
	}
}

func decodeLBJoin(d *dec) monitor.LBJoinState {
	var j monitor.LBJoinState
	j.K = int(d.i32())
	j.MaxPending = int(d.i32())
	j.Lost = d.u64()
	j.Floor = d.u32()
	j.MaxDone = d.u32()
	n := d.count(4 + 4)
	for i := 0; i < n && d.err == nil; i++ {
		r := monitor.LBJoinRoundState{Seq: d.u32()}
		r.Contribs = decodeContribs(d)
		j.Pending = append(j.Pending, r)
	}
	return j
}

func laSize(st monitor.LastArrivalState) int {
	n := 8 + 8 + 4 + 4
	for _, w := range st.Weighted {
		n += 2 + len(w.Node) + 4 + 8
	}
	for _, nj := range st.Joins {
		n += 2 + len(nj.Node) + lbJoinSize(nj.Join)
	}
	return n
}

func encodeLA(e *enc, st monitor.LastArrivalState) {
	e.u64(st.Fed)
	e.u64(st.Matched)
	e.u32(uint32(len(st.Weighted)))
	for _, w := range st.Weighted {
		e.str(w.Node)
		e.i32(w.Contributor)
		e.u64(w.Count)
	}
	e.u32(uint32(len(st.Joins)))
	for _, nj := range st.Joins {
		e.str(nj.Node)
		encodeLBJoin(e, nj.Join)
	}
}

func decodeLA(d *dec) monitor.LastArrivalState {
	var st monitor.LastArrivalState
	st.Fed = d.u64()
	st.Matched = d.u64()
	n := d.count(2 + 4 + 8)
	for i := 0; i < n && d.err == nil; i++ {
		var w monitor.WeightedCount
		w.Node = d.str()
		w.Contributor = d.i32()
		w.Count = d.u64()
		st.Weighted = append(st.Weighted, w)
	}
	n = d.count(2 + 4 + 4 + 8 + 4 + 4 + 4)
	for i := 0; i < n && d.err == nil; i++ {
		var nj monitor.NamedLBJoinState
		nj.Node = d.str()
		nj.Join = decodeLBJoin(d)
		st.Joins = append(st.Joins, nj)
	}
	return st
}

func joinerSize(j analysis.JoinerState) int {
	n := 4 + 4 + 8 + 4
	for _, r := range j.Pending {
		n += 4 + 1 + tupleSize + contribsSize(r.Contribs)
	}
	return n
}

func encodeJoiner(e *enc, j analysis.JoinerState) {
	e.i32(int32(j.K))
	e.i32(int32(j.MaxPending))
	e.u64(j.Lost)
	e.u32(uint32(len(j.Pending)))
	for _, r := range j.Pending {
		e.u32(r.Seq)
		if r.HaveColl {
			e.u8(1)
		} else {
			e.u8(0)
		}
		e.tuple(r.Collective)
		encodeContribs(e, r.Contribs)
	}
}

func decodeJoiner(d *dec) analysis.JoinerState {
	var j analysis.JoinerState
	j.K = int(d.i32())
	j.MaxPending = int(d.i32())
	j.Lost = d.u64()
	n := d.count(4 + 1 + tupleSize + 4)
	for i := 0; i < n && d.err == nil; i++ {
		var r analysis.RoundState
		r.Seq = d.u32()
		r.HaveColl = d.u8() != 0
		r.Collective = d.tuple()
		r.Contribs = decodeContribs(d)
		j.Pending = append(j.Pending, r)
	}
	return j
}

func streamSize(s analysis.StreamState) int { return 8 + 8*4 + 4 + 4 + 8*len(s.Ring) }

func encodeStream(e *enc, s analysis.StreamState) {
	e.u64(s.N)
	e.f64(s.Mean)
	e.f64(s.M2)
	e.f64(s.Min)
	e.f64(s.Max)
	e.i32(int32(s.Window))
	e.u32(uint32(len(s.Ring)))
	for _, v := range s.Ring {
		e.f64(v)
	}
}

func decodeStream(d *dec) analysis.StreamState {
	var s analysis.StreamState
	s.N = d.u64()
	s.Mean = d.f64()
	s.M2 = d.f64()
	s.Min = d.f64()
	s.Max = d.f64()
	s.Window = int(d.i32())
	n := d.count(8)
	for i := 0; i < n && d.err == nil; i++ {
		s.Ring = append(s.Ring, d.f64())
	}
	return s
}

func statsSize(st monitor.StatsState) int {
	n := 4 + 8 + 8 + 4
	for _, ns := range st.Nodes {
		n += 4 + 8 + joinerSize(ns.Joiner)
		for _, s := range []analysis.StreamState{ns.Down, ns.Up, ns.Total, ns.ArrWait, ns.DepWait} {
			n += streamSize(s)
		}
	}
	return n
}

func encodeStats(e *enc, st monitor.StatsState) {
	e.i32(int32(st.Window))
	e.u64(st.Fed)
	e.u64(st.Matched)
	e.u32(uint32(len(st.Nodes)))
	for _, ns := range st.Nodes {
		e.u32(ns.NodeID)
		e.u64(ns.Rounds)
		encodeJoiner(e, ns.Joiner)
		encodeStream(e, ns.Down)
		encodeStream(e, ns.Up)
		encodeStream(e, ns.Total)
		encodeStream(e, ns.ArrWait)
		encodeStream(e, ns.DepWait)
	}
}

func decodeStats(d *dec) monitor.StatsState {
	var st monitor.StatsState
	st.Window = int(d.i32())
	st.Fed = d.u64()
	st.Matched = d.u64()
	n := d.count(4 + 8)
	for i := 0; i < n && d.err == nil; i++ {
		var ns monitor.StatsNodeState
		ns.NodeID = d.u32()
		ns.Rounds = d.u64()
		ns.Joiner = decodeJoiner(d)
		ns.Down = decodeStream(d)
		ns.Up = decodeStream(d)
		ns.Total = decodeStream(d)
		ns.ArrWait = decodeStream(d)
		ns.DepWait = decodeStream(d)
		st.Nodes = append(st.Nodes, ns)
	}
	return st
}

func engineSize(st query.EngineState) int {
	n := 4 + 8 + 4 + 4 + tupleSize*len(st.Buf) + 4 + alertSize*len(st.Alerts) + 4
	for _, q := range st.Queries {
		n += 8 + 1 + 8 + 4 + 6*len(q.Streak) + 4 + 2*len(q.Fired)
	}
	return n
}

func encodeEngine(e *enc, st query.EngineState) {
	e.i32(int32(st.Expected))
	e.i64(int64(st.Watermark))
	e.u32(st.Seq)
	e.tuples(st.Buf)
	e.u32(uint32(len(st.Alerts)))
	for _, a := range st.Alerts {
		e.u64(a.QueryHash)
		e.u16(a.Group)
		e.u32(a.Seq)
		e.i64(int64(a.At))
	}
	e.u32(uint32(len(st.Queries)))
	for _, q := range st.Queries {
		e.u64(q.Hash)
		if q.Anchored {
			e.u8(1)
		} else {
			e.u8(0)
		}
		e.i64(int64(q.LastTick))
		e.u32(uint32(len(q.Streak)))
		for _, gs := range q.Streak {
			e.u16(gs.Group)
			e.i32(gs.Count)
		}
		e.u32(uint32(len(q.Fired)))
		for _, g := range q.Fired {
			e.u16(g)
		}
	}
}

func decodeEngine(d *dec) query.EngineState {
	var st query.EngineState
	st.Expected = int(d.i32())
	st.Watermark = hrtime.Stamp(d.i64())
	st.Seq = d.u32()
	st.Buf = d.tuples()
	n := d.count(alertSize)
	for i := 0; i < n && d.err == nil; i++ {
		var a collect.AlertTuple
		a.QueryHash = d.u64()
		a.Group = d.u16()
		a.Seq = d.u32()
		a.At = hrtime.Stamp(d.i64())
		st.Alerts = append(st.Alerts, a)
	}
	n = d.count(8 + 1 + 8 + 4 + 4)
	for i := 0; i < n && d.err == nil; i++ {
		var q query.StandingState
		q.Hash = d.u64()
		q.Anchored = d.u8() != 0
		q.LastTick = hrtime.Stamp(d.i64())
		sn := d.count(6)
		for j := 0; j < sn && d.err == nil; j++ {
			var gs query.GroupStreak
			gs.Group = d.u16()
			gs.Count = d.i32()
			q.Streak = append(q.Streak, gs)
		}
		fn := d.count(2)
		for j := 0; j < fn && d.err == nil; j++ {
			q.Fired = append(q.Fired, d.u16())
		}
		st.Queries = append(st.Queries, q)
	}
	return st
}

// Encode frames a checkpoint into its on-disk byte form.
func Encode(cp Checkpoint) []byte { return appendEncode(nil, cp) }

// appendEncode appends cp's frame to dst, growing it only when its
// capacity falls short: a checkpointer encodes every frame of a run
// into one buffer.
func appendEncode(dst []byte, cp Checkpoint) []byte {
	payloadLen := (2 + 4 + cursorSize()) + (2 + 4 + laSize(cp.LA)) + (2 + 4 + statsSize(cp.Stats))
	if cp.HasEngine {
		payloadLen += 2 + 4 + engineSize(cp.Engine)
	}
	start := len(dst)
	dst = slices.Grow(dst, headerSize+payloadLen)[:start+headerSize+payloadLen]
	buf := dst[start:]
	e := &enc{buf: buf, off: headerSize}

	e.u16(secCursor)
	e.u32(uint32(cursorSize()))
	encodeCursor(e, cp.At, cp.Cursor)

	e.u16(secLA)
	e.u32(uint32(laSize(cp.LA)))
	encodeLA(e, cp.LA)

	e.u16(secStats)
	e.u32(uint32(statsSize(cp.Stats)))
	encodeStats(e, cp.Stats)

	var flags uint16
	if cp.HasEngine {
		flags |= flagEngine
		e.u16(secEngine)
		e.u32(uint32(engineSize(cp.Engine)))
		encodeEngine(e, cp.Engine)
	}
	if e.off != len(buf) {
		// Size/encode drift is a programming error, not a data error.
		panic(fmt.Sprintf("checkpoint: encoded %d bytes, sized %d", e.off-headerSize, payloadLen))
	}

	copy(buf[0:4], magic[:])
	binary.LittleEndian.PutUint16(buf[4:6], version)
	binary.LittleEndian.PutUint16(buf[6:8], flags)
	binary.LittleEndian.PutUint32(buf[8:12], cp.Seq)
	binary.LittleEndian.PutUint32(buf[12:16], uint32(payloadLen))
	binary.LittleEndian.PutUint32(buf[16:20], crc32.ChecksumIEEE(buf[headerSize:]))
	binary.LittleEndian.PutUint32(buf[20:24], crc32.ChecksumIEEE(buf[0:20]))
	return dst
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

	var haveCursor, haveLA, haveStats, haveEngine bool
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
		d := &dec{buf: payload[off : off+n]}
		switch id {
		case secCursor:
			cp.At, cp.Cursor = decodeCursor(d)
			haveCursor = true
		case secLA:
			cp.LA = decodeLA(d)
			haveLA = true
		case secStats:
			cp.Stats = decodeStats(d)
			haveStats = true
		case secEngine:
			cp.Engine = decodeEngine(d)
			haveEngine = true
		default:
			// Unknown sections are skipped for forward compatibility; the
			// payload CRC already vouched for their bytes.
		}
		if d.err != nil {
			return cp, d.err
		}
		if d.err == nil && d.off != n && (id == secCursor || id == secLA || id == secStats || id == secEngine) {
			return cp, fmt.Errorf("%w: section %d decoded %d of %d bytes", ErrInvalid, id, d.off, n)
		}
		off += n
	}
	if !haveCursor || !haveLA || !haveStats {
		return cp, fmt.Errorf("%w: missing required section", ErrInvalid)
	}
	if haveEngine != (flags&flagEngine != 0) {
		return cp, fmt.Errorf("%w: engine section does not match header flags", ErrInvalid)
	}
	cp.HasEngine = haveEngine
	return cp, nil
}
