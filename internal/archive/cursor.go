// Archive cursors: the replay-suffix contract between the recovery
// checkpointer and the reader. Writer.Position stamps a checkpoint with
// the durable position of the stream; Reader.ScanFrom replays only the
// tuples archived after that position. Recovery time then scales with
// the suffix written since the last checkpoint, not with the archive —
// the bounded-time failover the benchmark reports as recover_ms.
//
// A cursor is only honoured when the directory still proves it: the
// tuple counts of the segments before the cursor must sum to exactly
// the cursor's global position, and the cursor segment must still hold
// at least the covered tuple count. Retention deletes, a torn cursor
// segment, or a cursor from some other directory all fail validation
// with an error, and the caller falls back down the recovery ladder
// (older checkpoint, then full replay) instead of silently diverging.
package archive

import "eventspace/internal/collect"

// Cursor marks a durable position in an archive directory's tuple
// stream, in directory-lifetime coordinates (reopen after a crash
// continues the same count).
type Cursor struct {
	// Tuples counts every tuple persisted to the directory before this
	// point, across all segments ever written, including any since
	// deleted by retention.
	Tuples uint64
	// Segment is the id of the segment that was active at capture.
	Segment uint32
	// SegTuples counts the tuples already persisted into that segment
	// at capture.
	SegTuples uint64
}

// ScanFrom streams every tuple archived after cur that matches q, in
// archive order, through fn — the replay-suffix fast path behind
// checkpointed recovery. Segments wholly covered by the cursor are
// skipped without reading a byte. A sealed cursor segment is read from
// the block holding the cursor on, its covered blocks located through
// its block index and never read; an unsealed one is skipped
// block-by-block without decoding until the cursor position. Later
// segments are scanned normally. fn returning false stops the scan
// early.
//
// ScanFrom fails — rather than guessing — when the directory no longer
// matches the cursor: the cursor segment is gone or torn before the
// covered position, or the surviving prefix tuple counts do not sum to
// the cursor's global position (retention deleted covered segments).
// Callers treat that error as "this checkpoint is unusable here" and
// fall back to an older checkpoint or a full Scan.
func (r *Reader) ScanFrom(cur Cursor, q Query, fn func(collect.TraceTuple) bool) (ScanStats, error) {
	return r.scanTuples(&cur, q, fn)
}
