// Package annot is a lint fixture for the annotation contract: an
// allow without a reason, an allow naming an unknown analyzer, and an
// allow that suppresses no finding are each themselves a finding. The
// first two suppress nothing. The test asserts the exact diagnostics
// (no want comments here — an annotation finding lands on the
// annotation's own line, where a want comment cannot sit).
package annot

import "time"

func bare() {
	//lint:allow wallclock
	_ = time.Now()
}

func reasoned() {
	_ = time.Now() //lint:allow wallclock a reason makes it valid
}

func unknown() {
	//lint:allow vcregister folded into goroleak; this name suppresses nothing
	_ = time.Now()
}

func unused() {
	//lint:allow wallclock stale: the line below no longer reads the clock
	_ = time.Duration(0)
}
