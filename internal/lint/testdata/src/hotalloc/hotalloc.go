// Package hotalloc is a lint fixture for the zero-allocation analyzer:
// functions marked //lint:hotpath (and the local functions they call)
// must not contain reachable heap allocations.
package hotalloc

import "fmt"

// Record mirrors the fixed-size trace record shapes.
type Record struct {
	buf [64]byte
	n   int
}

// EncodeTo is the clean hot-path shape: stack scratch, no allocation.
//
//lint:hotpath gated by the zero-alloc benchmark in CI
func (r *Record) EncodeTo(dst []byte) int {
	var scratch [8]byte
	for i := range scratch {
		scratch[i] = byte(r.n >> (8 * i))
	}
	return copy(dst, scratch[:])
}

// EncodeSloppy collects every allocation shape the analyzer knows.
//
//lint:hotpath fixture: every line below must be flagged
func (r *Record) EncodeSloppy(dst []byte, v any) string {
	tmp := make([]byte, 8)        // want `call to make`
	dst = append(dst, tmp...)     // want `call to append`
	s := string(dst)              // want `string conversion`
	msg := fmt.Sprintf("%d", r.n) // want `call to fmt\.Sprintf`
	sink = &Record{}              // want `&composite literal`
	sinkSlice = []int{1, 2}       // want `slice literal`
	fn := func() {}               // want `function literal`
	fn()
	go fn()        // want `go statement`
	box(r.n)       // want `interface boxing`
	return s + msg // want `string concatenation`
}

// EncodeCold allocates only after a panic: the CFG filter must not
// flag the unreachable statement.
//
//lint:hotpath fixture: unreachable alloc below
func (r *Record) EncodeCold() int {
	panic("fixture: EncodeCold never runs")
	_ = make([]byte, 8)
	return 0
}

// EncodeVia reaches an allocation through a local helper: the helper
// joins the hot set and the finding lands at its allocation.
//
//lint:hotpath fixture: propagation root
func (r *Record) EncodeVia(dst []byte) int {
	return r.grow(dst)
}

func (r *Record) grow(dst []byte) int {
	dst = append(dst, r.buf[:r.n]...) // want `reachable from //lint:hotpath root EncodeVia`
	return len(dst)
}

// EncodeAllowed shows the explained cold path.
//
//lint:hotpath fixture: annotated exception
func (r *Record) EncodeAllowed(dst []byte) error {
	if r.n > len(r.buf) {
		//lint:allow hotalloc corruption check, fires at most once per run
		return fmt.Errorf("record overflow: %d", r.n)
	}
	return nil
}

// Unmarked allocates freely: no marker, no findings.
func Unmarked() []byte {
	return append(make([]byte, 0, 8), 1)
}

// box takes an interface parameter; pointer arguments store directly.
func box(v any) { sinkAny = v }

var (
	sink      *Record
	sinkSlice []int
	sinkAny   any
)
