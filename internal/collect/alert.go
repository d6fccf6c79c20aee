// Control tuples. Real event collectors are numbered from 1, leaving
// collector id 0 free as a control channel inside the 28-byte tuple
// format. A continuous query (internal/query) firing on the live gather
// stream is recorded as a control tuple on that reserved id: the alert
// is archived alongside the data tuples that caused it, and replaying
// the archive regenerates the identical alert stream from the data
// tuples alone — the byte-for-byte contract the determinism tests pin
// down. Checkpoint marks (checkpoint.go) ride the same channel.
package collect

import (
	"eventspace/internal/hrtime"
	"eventspace/internal/paths"
)

// ControlECID is the reserved collector id carried by control tuples.
// Registry-assigned collector ids start at 1, so id 0 never collides
// with trace data.
const ControlECID uint32 = 0

// HashName is the FNV-64 hash used to tie a control tuple to what it
// describes: tuple space has no room for a name, so the hash of one (an
// alert's canonical query text) rides in the End field.
func HashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// AlertTuple is a decoded continuous-query alert: the identity of the
// standing query (as the FNV-64 hash of its canonical esql text), the
// group the alert fired for (an event-collector id for `by ecid`
// queries, 0 for ungrouped queries — real collector ids start at 1), a
// dense per-engine alert sequence number, and the evaluation-tick stamp
// the query fired at.
type AlertTuple struct {
	QueryHash uint64
	Group     uint16
	Seq       uint32
	At        hrtime.Stamp
}

// EncodeAlert packs an alert into the standard 28-byte tuple layout:
// ECID 0, Op OpAlert, the group in Ret, the alert sequence in Seq, the
// tick stamp in Start and the query hash in End. Group keys above 65535
// cannot be represented; the query engine refuses to group on them.
func EncodeAlert(a AlertTuple) TraceTuple {
	return TraceTuple{
		ECID:  ControlECID,
		Op:    paths.OpAlert,
		Ret:   int16(a.Group),
		Seq:   a.Seq,
		Start: a.At,
		End:   hrtime.Stamp(a.QueryHash),
	}
}

// DecodeAlert unpacks an alert from a trace tuple, reporting false for
// data tuples and non-alert control tuples.
func DecodeAlert(t TraceTuple) (AlertTuple, bool) {
	if t.ECID != ControlECID || t.Op != paths.OpAlert {
		return AlertTuple{}, false
	}
	return AlertTuple{
		QueryHash: uint64(t.End),
		Group:     uint16(t.Ret),
		Seq:       t.Seq,
		At:        t.Start,
	}, true
}
