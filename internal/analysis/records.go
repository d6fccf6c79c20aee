package analysis

import (
	"encoding/binary"
	"fmt"
	"math"
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

// Encode packs the record into a fresh slice.
func (r StatsRecord) Encode() []byte {
	buf := make([]byte, StatsRecordSize)
	r.EncodeTo(buf)
	return buf
}

// EncodeTo packs the record into buf, which must be at least
// StatsRecordSize bytes; every byte of the record is written.
func (r StatsRecord) EncodeTo(buf []byte) {
	binary.LittleEndian.PutUint32(buf[0:4], r.ID)
	buf[4] = r.Kind
	buf[5] = 0
	binary.LittleEndian.PutUint16(buf[6:8], r.Count)
	binary.LittleEndian.PutUint32(buf[8:12], math.Float32bits(r.Mean))
	binary.LittleEndian.PutUint32(buf[12:16], math.Float32bits(r.Min))
	binary.LittleEndian.PutUint32(buf[16:20], math.Float32bits(r.Max))
	binary.LittleEndian.PutUint32(buf[20:24], math.Float32bits(r.Std))
	binary.LittleEndian.PutUint32(buf[24:28], math.Float32bits(r.Median))
}

// DecodeStatsRecord unpacks a stats record.
func DecodeStatsRecord(buf []byte) (StatsRecord, error) {
	if len(buf) < StatsRecordSize {
		return StatsRecord{}, fmt.Errorf("analysis: short stats record (%d bytes)", len(buf))
	}
	return StatsRecord{
		ID:     binary.LittleEndian.Uint32(buf[0:4]),
		Kind:   buf[4],
		Count:  binary.LittleEndian.Uint16(buf[6:8]),
		Mean:   math.Float32frombits(binary.LittleEndian.Uint32(buf[8:12])),
		Min:    math.Float32frombits(binary.LittleEndian.Uint32(buf[12:16])),
		Max:    math.Float32frombits(binary.LittleEndian.Uint32(buf[16:20])),
		Std:    math.Float32frombits(binary.LittleEndian.Uint32(buf[20:24])),
		Median: math.Float32frombits(binary.LittleEndian.Uint32(buf[24:28])),
	}, nil
}

// DecodeStatsRecords unpacks a concatenation of stats records.
func DecodeStatsRecords(buf []byte) ([]StatsRecord, error) {
	if len(buf)%StatsRecordSize != 0 {
		return nil, fmt.Errorf("analysis: payload %d bytes is not whole stats records", len(buf))
	}
	out := make([]StatsRecord, 0, len(buf)/StatsRecordSize)
	for off := 0; off < len(buf); off += StatsRecordSize {
		r, err := DecodeStatsRecord(buf[off : off+StatsRecordSize])
		if err != nil {
			return nil, err
		}
		out = append(out, r)
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

// Encode packs the record into a fresh slice.
func (r LastArrivalRecord) Encode() []byte {
	buf := make([]byte, LastArrivalRecordSize)
	r.EncodeTo(buf)
	return buf
}

// EncodeTo packs the record into buf, which must be at least
// LastArrivalRecordSize bytes; every byte of the record is written.
func (r LastArrivalRecord) EncodeTo(buf []byte) {
	binary.LittleEndian.PutUint32(buf[0:4], r.Node)
	binary.LittleEndian.PutUint16(buf[4:6], r.Contributor)
	binary.LittleEndian.PutUint16(buf[6:8], 0)
	binary.LittleEndian.PutUint64(buf[8:16], r.Count)
}

// DecodeLastArrivalRecord unpacks a last-arrival record.
func DecodeLastArrivalRecord(buf []byte) (LastArrivalRecord, error) {
	if len(buf) < LastArrivalRecordSize {
		return LastArrivalRecord{}, fmt.Errorf("analysis: short last-arrival record (%d bytes)", len(buf))
	}
	return LastArrivalRecord{
		Node:        binary.LittleEndian.Uint32(buf[0:4]),
		Contributor: binary.LittleEndian.Uint16(buf[4:6]),
		Count:       binary.LittleEndian.Uint64(buf[8:16]),
	}, nil
}

// DecodeLastArrivalRecords unpacks a concatenation of last-arrival
// records.
func DecodeLastArrivalRecords(buf []byte) ([]LastArrivalRecord, error) {
	if len(buf)%LastArrivalRecordSize != 0 {
		return nil, fmt.Errorf("analysis: payload %d bytes is not whole last-arrival records", len(buf))
	}
	out := make([]LastArrivalRecord, 0, len(buf)/LastArrivalRecordSize)
	for off := 0; off < len(buf); off += LastArrivalRecordSize {
		r, err := DecodeLastArrivalRecord(buf[off : off+LastArrivalRecordSize])
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
