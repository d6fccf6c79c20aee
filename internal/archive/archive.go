// Package archive is EventSpace's flight recorder: a persistent,
// append-only, segmented binary store for the 28-byte trace tuples that
// the live monitors otherwise consume and discard.
//
// The live system's trace buffers are bounded PastSet elements that
// overwrite their oldest tuples; any analysis not running at collection
// time loses the evidence. The archive turns a monitoring run into a
// durable artifact: a Writer sinks trace-tuple batches (from an
// escope.Puller sink or a direct monitor tap) into fixed-size segment
// files, a Reader queries them back with pushdown filters that skip
// whole segments via the per-segment header index and single blocks via
// a sealed segment's block index, and the replay layer
// feeds archived tuples through the same join/statistics pipelines the
// live monitors run — deterministically, because everything is keyed by
// tuple stamps and sequence numbers, never by the clock at replay time.
//
// # On-disk format
//
// A segment file is a 64-byte header followed by checksummed columnar
// blocks of whole tuples and, once sealed, a block index. The header's
// version field names the layout; version 3 below is the only one.
// Segments of the retired versions 1 (row blocks) and 2 (no block
// index) are refused on open, never repaired:
//
//	header (64 B): magic "ESG1", version, flags (sealed), segment id,
//	               ECID range, stamp range, tuple/block counts,
//	               block index offset and length, CRC32
//
//	block:
//	  header (12 B): tuple count, column-area bytes, CRC32(directory)
//	  directory    : 6 × {encoding, length, CRC32} — one per column
//	  payloads     : ECID, Op, Ret, Seq, Start, End columns back to
//	                 back, each dictionary-, delta-, latency- or
//	                 raw-encoded (see DESIGN.md §12)
//
//	block index  : a zero word (never a block's tuple count), the block
//	               count, per block its bytes, tuple count, ECID range
//	               and Start range, CRC32
//
// A query with ECIDs, stamp bounds or a cursor reads a sealed segment
// through its block index and reads only the blocks whose ranges can
// match. Blocks carry a CRC per column, so a query filtering on ECID or
// op kind can verify and decode just a block's dictionary column and
// skip the block entirely when the dictionary cannot intersect the
// query (the benchmark's archive.blocks_skipped_share counts both
// skips).
//
// The header is written provisionally (unsealed, empty index) when the
// segment is created. Sealing, at rotation or Close, appends the block
// index and then rewrites the header in place to point at it. A crash
// can therefore leave the newest segment with an unsealed header and a
// torn final block, or with the index bytes of an unfinished seal;
// reopen and read both tolerate that by scanning blocks and truncating
// at the first invalid one, so at most the final partial block is lost
// (the round-trip and torn-tail tests pin this down).
//
// Rotation and retention are byte-capped: a segment rotates once its
// file exceeds Options.SegmentBytes, and after every rotation the
// oldest sealed segments are deleted until the archive's total size
// fits Options.MaxTotalBytes.
package archive

import (
	"fmt"

	"eventspace/internal/metrics"
)

// Options configures a Writer.
type Options struct {
	// Dir is the archive directory. Created if missing; a directory
	// holding segments from a previous run is reopened crash-safely
	// (the torn tail of the newest segment is truncated away).
	Dir string
	// SegmentBytes caps one segment file's size; the writer rotates to
	// a fresh segment once the current one exceeds it. 0 uses
	// DefaultSegmentBytes.
	SegmentBytes int64
	// MaxTotalBytes caps the archive's total size: after each rotation
	// the oldest sealed segments are deleted until the total fits.
	// 0 keeps everything.
	MaxTotalBytes int64
	// BlockTuples is the number of tuples buffered per block before the
	// block is written out. 0 uses DefaultBlockTuples; the cap is
	// MaxBlockTuples.
	BlockTuples int
	// Metrics, when set, accounts archive writes (ops, bytes, latency)
	// and rotation/retention/truncation events in the self-metrics
	// registry. nil disables.
	Metrics *metrics.Registry
	// CrashPoints, when set, arms deterministic crash injection: the
	// writer (and any checkpointer sharing the options) tears the
	// in-flight write at the armed sites and goes sticky-dead with
	// ErrInjectedCrash, leaving exactly the on-disk state a power cut at
	// that instant would. Test-only; nil (the default) disables.
	CrashPoints *CrashPoints
}

// Format constants.
const (
	// DefaultSegmentBytes is the rotation cap when Options.SegmentBytes
	// is zero: 1 MiB, the paper's trace-buffer sizing unit (about
	// 37 450 tuples).
	DefaultSegmentBytes = 1 << 20
	// DefaultBlockTuples is the per-block buffering when
	// Options.BlockTuples is zero.
	DefaultBlockTuples = 256
	// MaxBlockTuples bounds a block's tuple count; a header claiming
	// more is treated as a torn/corrupt tail.
	MaxBlockTuples = 1 << 16
)

func (o *Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return DefaultSegmentBytes
	}
	if o.SegmentBytes < segmentHeaderSize+v2BlockHeaderSize {
		return segmentHeaderSize + v2BlockHeaderSize
	}
	return o.SegmentBytes
}

func (o *Options) blockTuples() int {
	switch {
	case o.BlockTuples <= 0:
		return DefaultBlockTuples
	case o.BlockTuples > MaxBlockTuples:
		return MaxBlockTuples
	default:
		return o.BlockTuples
	}
}

func (o *Options) validate() error {
	if o.Dir == "" {
		return fmt.Errorf("archive: no directory configured")
	}
	return nil
}
