// Checkpoint control tuples. When the recovery checkpointer
// (internal/checkpoint) persists a monitor-state snapshot, it appends a
// marker control tuple into the archive stream on the reserved
// collector id 0, exactly like continuous-query alerts (alert.go). The
// marker carries the checkpoint's chain sequence and the archive cursor
// it covers, so offline tooling can see where bounded-time recovery may
// begin without opening the sidecar chain. Markers are ignored by every
// replay join — like all control tuples — so archives with and without
// checkpoints replay byte-identically.
package collect

import (
	"eventspace/internal/hrtime"
	"eventspace/internal/paths"
)

// CheckpointMark is a checkpoint marker: the checkpoint's chain
// sequence number, the count of durable tuples the checkpoint covers
// (its archive cursor), and the stamp of the newest data tuple folded
// into the snapshot.
type CheckpointMark struct {
	Seq    uint32
	Tuples uint64
	At     hrtime.Stamp
}

// EncodeCheckpointMark packs a marker into the standard 28-byte tuple
// layout: ECID 0, Op OpCheckpoint, the chain sequence in Seq, the
// snapshot stamp in Start and the covered tuple count in End.
func EncodeCheckpointMark(m CheckpointMark) TraceTuple {
	return TraceTuple{
		ECID:  ControlECID,
		Op:    paths.OpCheckpoint,
		Seq:   m.Seq,
		Start: m.At,
		End:   hrtime.Stamp(m.Tuples),
	}
}
