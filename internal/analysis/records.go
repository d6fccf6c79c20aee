package analysis

import (
	"fmt"
	"math"

	"eventspace/internal/wire"
)

// Fixed-size binary records for intermediate and final analysis results.
// These are what distributed analysis threads write to PastSet buffers and
// what the gather trees move to the front-end.
//
// The paper stores per-wrapper statistics in 24-byte result tuples; this
// reproduction carries the routing id and all five statistics in the
// record, which takes 28 bytes (documented in DESIGN.md).

// Latency kinds in a stats record.
const (
	KindDown = iota + 1
	KindUp
	KindTotal
	KindArrivalWait
	KindDepartureWait
	KindTCP
)

// KindName names a latency kind.
func KindName(kind int) string {
	switch kind {
	case KindDown:
		return "down"
	case KindUp:
		return "up"
	case KindTotal:
		return "total"
	case KindArrivalWait:
		return "arrival-wait"
	case KindDepartureWait:
		return "departure-wait"
	case KindTCP:
		return "tcp"
	default:
		return fmt.Sprintf("kind(%d)", kind)
	}
}

// StatsRecordSize is the encoded size of a StatsRecord.
const StatsRecordSize = 28

// StatsRecord is a per-wrapper statistics result tuple: which wrapper (by
// its event collector id), which latency kind, and the five statistics in
// microseconds.
type StatsRecord struct {
	ID     uint32 // event collector / wrapper id
	Kind   uint8  // KindDown..KindTCP
	Count  uint16 // saturating sample count
	Mean   float32
	Min    float32
	Max    float32
	Std    float32
	Median float32
}

// StatsRecordFrom converts a stream snapshot (samples in microseconds).
func StatsRecordFrom(id uint32, kind int, r Result) StatsRecord {
	count := r.Count
	if count > math.MaxUint16 {
		count = math.MaxUint16
	}
	return StatsRecord{
		ID:     id,
		Kind:   uint8(kind),
		Count:  uint16(count),
		Mean:   float32(r.Mean),
		Min:    float32(r.Min),
		Max:    float32(r.Max),
		Std:    float32(r.Std),
		Median: float32(r.Median),
	}
}

// walk is the stats record's one declaration:
//
//	id u32 | kind u8 | reserved u8 | count u16 | mean, min, max, std, median f32
func (r *StatsRecord) walk(c *wire.Codec) {
	c.U32(&r.ID)
	c.U8(&r.Kind)
	c.Pad(1)
	c.U16(&r.Count)
	c.F32(&r.Mean)
	c.F32(&r.Min)
	c.F32(&r.Max)
	c.F32(&r.Std)
	c.F32(&r.Median)
}

// Append appends the record's StatsRecordSize bytes to dst.
func (r StatsRecord) Append(dst []byte) []byte {
	c := wire.Writer(dst)
	r.walk(&c)
	return c.Bytes()
}

// DecodeStatsRecords unpacks a concatenation of stats records.
func DecodeStatsRecords(buf []byte) ([]StatsRecord, error) {
	if len(buf)%StatsRecordSize != 0 {
		return nil, fmt.Errorf("analysis: payload %d bytes is not whole stats records", len(buf))
	}
	out := make([]StatsRecord, len(buf)/StatsRecordSize)
	c := wire.Reader(buf)
	for i := range out {
		out[i].walk(&c)
	}
	return out, nil
}

// LastArrivalRecordSize is the encoded size of a LastArrivalRecord.
const LastArrivalRecordSize = 16

// LastArrivalRecord is the load-balance monitor's intermediate result: how
// many times a contributor arrived last at a collective wrapper.
type LastArrivalRecord struct {
	Node        uint32 // collective wrapper id (its collective EC id)
	Contributor uint16
	Count       uint64
}

// walk is the last-arrival record's one declaration:
//
//	node u32 | contributor u16 | reserved u16 | count u64
func (r *LastArrivalRecord) walk(c *wire.Codec) {
	c.U32(&r.Node)
	c.U16(&r.Contributor)
	c.Pad(2)
	c.U64(&r.Count)
}

// Append appends the record's LastArrivalRecordSize bytes to dst.
func (r LastArrivalRecord) Append(dst []byte) []byte {
	c := wire.Writer(dst)
	r.walk(&c)
	return c.Bytes()
}

// DecodeLastArrivalRecord unpacks a last-arrival record.
func DecodeLastArrivalRecord(buf []byte) (LastArrivalRecord, error) {
	var r LastArrivalRecord
	c := wire.Reader(buf)
	if r.walk(&c); c.Err() != nil {
		return LastArrivalRecord{}, fmt.Errorf("analysis: short last-arrival record (%d bytes)", len(buf))
	}
	return r, nil
}
