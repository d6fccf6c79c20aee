package query

import (
	"cmp"
	"fmt"
	"slices"

	"eventspace/internal/archive"
	"eventspace/internal/collect"
	"eventspace/internal/hrtime"
)

// How an aggregate select executes (DESIGN.md §14): the archive hands
// out each block's matching tuples as one batch, decoded only in the
// columns the statement reads. A batch is resolved once, through an
// open-addressed cell table, to a vector of cell indexes (a cell is one
// group × window bucket, one result row), then every select column
// runs one loop over it: folding aggregates update their per-cell
// states, the rest append their field to a flat arena. After the scan
// a counting pass by group puts the cells in row order, with no
// comparison sort over rows; one counting sort by cell makes each
// cell's values contiguous, in that order, and the order statistics
// are selected in place. Every cell's values are written straight to
// its row. No tuple outlives its batch.

// cellKey names one result row: group (ecid; 0 when ungrouped) and
// window bucket (left edge; 0 when unwindowed).
type cellKey struct {
	group  uint32
	bucket hrtime.Stamp
}

// bucketOf is the left edge of the window-wide bucket holding stamp s:
// the largest multiple of window at or below s, so buckets tile the
// line across zero (a negative stamp belongs to the bucket that starts
// at or before it, not to the one truncation toward zero names).
// Stamps within one window of the int64 minimum wrap.
func bucketOf(s hrtime.Stamp, window int64) hrtime.Stamp {
	r := s % window
	if r < 0 {
		r += window
	}
	return s - r
}

// cellIndex resolves tuples to dense cell indexes, in first-appearance
// order. In archive order a tuple's cell is nearly always its
// predecessor's — a collector's tuples arrive in runs, and a bucket
// spans many of them — so the last cell sits in front of the table, and
// the bucket edge is recomputed only when Start leaves it.
//
// The table is open-addressed over keys: a slot holds a cell index + 1
// (0: empty), it is at most half full, and it doubles by rehashing keys.
// A key's home slot is the top bits of a multiplicative hash — buckets
// are multiples of the window, so their low bits are mostly zero.
type cellIndex struct {
	byECID bool
	window int64 // 0: unwindowed

	slots []int32   // a power of two long
	shift uint      // 64 - log2(len(slots))
	keys  []cellKey // cell index -> key

	last    cellKey
	lastIdx int32 // -1: no cell resolved yet
}

// newCellIndex is an empty index for a statement's grouping and window.
func newCellIndex(byECID bool, window int64) cellIndex {
	const bits = 6
	return cellIndex{byECID: byECID, window: window, slots: make([]int32, 1<<bits), shift: 64 - bits, lastIdx: -1}
}

// hash mixes both halves of a key into the top bits.
func (k cellKey) hash() uint64 {
	return (uint64(k.bucket) ^ uint64(k.group)*0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9
}

// slot returns k's slot and its content: k's cell index + 1, or 0 when
// k has no cell yet and the slot is where it would go.
func (x *cellIndex) slot(k cellKey) (int, int32) {
	mask := len(x.slots) - 1
	for i := int(k.hash() >> x.shift); ; i = (i + 1) & mask {
		if s := x.slots[i]; s == 0 || x.keys[s-1] == k {
			return i, s
		}
	}
}

// keyOf is t's cell key, reusing the cached bucket edge while t.Start
// stays inside it.
func (x *cellIndex) keyOf(t *collect.TraceTuple) cellKey {
	var k cellKey
	if x.byECID {
		k.group = t.ECID
	}
	if x.window > 0 {
		k.bucket = x.last.bucket
		if s := t.Start; x.lastIdx < 0 || s < k.bucket || uint64(s-k.bucket) >= uint64(x.window) {
			k.bucket = bucketOf(s, x.window)
		}
	}
	return k
}

// resolve writes the cell of batch[i] to cell[i] for i from `from` on,
// and returns the index of the first tuple whose cell does not exist
// yet (len(batch) when all resolved): the caller adds that cell and
// resumes there, which keeps the allocation out of this loop.
//
//lint:hotpath once per scanned tuple
func (x *cellIndex) resolve(batch []collect.TraceTuple, cell []int32, from int) int {
	cell = cell[:len(batch)]
	for i := from; i < len(batch); i++ {
		k := x.keyOf(&batch[i])
		if k != x.last || x.lastIdx < 0 {
			_, s := x.slot(k)
			if s == 0 {
				return i
			}
			x.last, x.lastIdx = k, s-1
		}
		cell[i] = x.lastIdx
	}
	return len(batch)
}

// add creates t's cell and makes it the cached one.
func (x *cellIndex) add(t *collect.TraceTuple) {
	k := x.keyOf(t)
	x.last, x.lastIdx = k, x.insert(k)
}

// insert gives k, which has no cell yet, the next cell index, doubling
// the table first when it would be more than half full.
func (x *cellIndex) insert(k cellKey) int32 {
	idx := int32(len(x.keys))
	x.keys = append(x.keys, k)
	if 2*len(x.keys) > len(x.slots) {
		x.slots, x.shift = make([]int32, 2*len(x.slots)), x.shift-1
		for c, k := range x.keys[:idx] {
			i, _ := x.slot(k)
			x.slots[i] = int32(c) + 1
		}
	}
	i, _ := x.slot(k)
	x.slots[i] = idx + 1
	return idx
}

// order returns the cells in row order — by group, then bucket — as
// row -> cell index, without comparing rows. The distinct groups are
// few: they are sorted, and a counting pass places every cell after
// the cells of smaller groups, in first-appearance order within its
// own. That order is already by bucket when a group's stamps arrive
// ascending, as a collector writes them; a group whose buckets step
// back is sorted by bucket.
func (x *cellIndex) order() []int32 {
	// Each cell's dense group index, from a table of its own whose keys
	// are the distinct groups in first-appearance order, and next[g]
	// counting group g's cells.
	gi := make([]int32, len(x.keys))
	var next []int32
	groups := newCellIndex(false, 0)
	for c, k := range x.keys {
		if c > 0 && k.group == x.keys[c-1].group {
			gi[c] = gi[c-1]
		} else {
			g := cellKey{group: k.group}
			_, s := groups.slot(g)
			if s == 0 {
				s = groups.insert(g) + 1
				next = append(next, 0)
			}
			gi[c] = s - 1
		}
		next[gi[c]]++
	}
	// Groups in ascending order, next[g] becomes where group g's first
	// row goes.
	byValue := make([]int32, len(next))
	for g := range byValue {
		byValue[g] = int32(g)
	}
	slices.SortFunc(byValue, func(a, b int32) int { return cmp.Compare(groups.keys[a].group, groups.keys[b].group) })
	var off int32
	for _, g := range byValue {
		off, next[g] = off+next[g], off
	}
	byRow := make([]int32, len(x.keys))
	byGroup(byRow, next, gi)
	// next[g] is now the end of group g's rows.
	lo := int32(0)
	for _, g := range byValue {
		if run := byRow[lo:next[g]]; !x.ascending(run) {
			slices.SortFunc(run, func(a, b int32) int { return cmp.Compare(x.keys[a].bucket, x.keys[b].bucket) })
		}
		lo = next[g]
	}
	return byRow
}

// byGroup places every cell at its group's next row, keeping
// first-appearance order within a group: gi[c] is cell c's group, and
// next[g] where group g's next cell goes.
//
//lint:hotpath once per cell
func byGroup(byRow, next, gi []int32) {
	for c, g := range gi {
		byRow[next[g]] = int32(c)
		next[g]++
	}
}

// ascending reports whether the cells of run have ascending buckets.
//
//lint:hotpath once per cell
func (x *cellIndex) ascending(run []int32) bool {
	for i := 1; i < len(run); i++ {
		if x.keys[run[i]].bucket < x.keys[run[i-1]].bucket {
			return false
		}
	}
	return true
}

// aggColumn is one select column's running state: per-cell folds, or
// the index of the value arena its field is collected in.
type aggColumn struct {
	agg   *Agg
	st    []aggState // folding aggregates: one per cell
	arena int        // the others: index into aggRun.arenas
}

// valueArena collects one field's value for every matched tuple, in
// scan order, parallel to aggRun.arenaCell.
type valueArena struct {
	field Field
	vals  []int64
}

// aggRun is one aggregate select in flight.
type aggRun struct {
	where   Expr
	index   cellIndex
	cols    []aggColumn
	matched uint64

	cell []int32 // the batch's cell vector
	vals []int64 // the batch's current field column

	arenas    []valueArena
	arenaCell []int32 // cell of every matched tuple, when any arena exists
}

// feed folds one batch of archive tuples into the run.
func (a *aggRun) feed(batch []collect.TraceTuple) {
	if a.where != nil {
		n := 0
		for i := range batch {
			if evalRow(a.where, batch[i]).Bool() {
				batch[n] = batch[i]
				n++
			}
		}
		batch = batch[:n]
	}
	n := len(batch)
	if n == 0 {
		return
	}
	a.matched += uint64(n)
	if cap(a.cell) < n {
		a.cell = make([]int32, n)
		a.vals = make([]int64, n)
	}
	cell, vals := a.cell[:n], a.vals[:n]
	for i := 0; ; {
		if i = a.index.resolve(batch, cell, i); i == n {
			break
		}
		a.index.add(&batch[i])
	}
	if len(a.arenas) > 0 {
		a.arenaCell = append(a.arenaCell, cell...)
	}
	have := FieldNone // the field vals holds
	for i := range a.arenas {
		ar := &a.arenas[i]
		fieldVals(vals, batch, ar.field)
		have = ar.field
		ar.vals = append(ar.vals, vals...)
	}
	for i := range a.cols {
		c := &a.cols[i]
		if !c.agg.Kind.folds() {
			continue
		}
		if old, cells := len(c.st), len(a.index.keys); old < cells {
			c.st = slices.Grow(c.st, cells-old)[:cells]
			clear(c.st[old:])
		}
		if f := c.agg.field(); f != FieldNone && f != have {
			fieldVals(vals, batch, f)
			have = f
		}
		accumulate(c.agg.Kind, c.st, cell, vals)
	}
}

// RunQuery is Run with an explicit pushdown query (see ScanQuery).
func RunQuery(r *archive.Reader, s *Stmt, aq archive.Query) (*Result, archive.ScanStats, error) {
	if s.Alert {
		return nil, archive.ScanStats{}, fmt.Errorf("query: Run wants a select statement (replay alerts with an Engine)")
	}
	if s.Star {
		return nil, archive.ScanStats{}, fmt.Errorf("query: Run wants an aggregate select (stream select * with Scan)")
	}
	run := aggRun{where: s.Where}
	run.index = newCellIndex(s.By == FieldECID, int64(s.Window))
	need := exprColumns(s.Where)
	if run.index.byECID {
		need |= archive.ColECID
	}
	if run.index.window > 0 {
		need |= archive.ColStart
	}
	// With no predicate every archived tuple can land in the arenas, so
	// they are sized once; under a predicate they grow with what matches.
	var hint uint64
	if s.Where == nil {
		hint = r.Tuples()
	}
	for _, c := range s.Cols {
		col := aggColumn{agg: c}
		f := c.field()
		need |= fieldColumns(f)
		if !c.Kind.folds() {
			col.arena = slices.IndexFunc(run.arenas, func(ar valueArena) bool { return ar.field == f })
			if col.arena < 0 {
				col.arena = len(run.arenas)
				run.arenas = append(run.arenas, valueArena{field: f, vals: make([]int64, 0, hint)})
			}
		}
		run.cols = append(run.cols, col)
	}
	if len(run.arenas) > 0 {
		run.arenaCell = make([]int32, 0, hint)
	}

	stats, err := r.ScanBatches(nil, aq, need, func(batch []collect.TraceTuple) bool {
		run.feed(batch)
		return true
	})
	stats.TuplesMatched = run.matched
	if err != nil {
		return nil, stats, err
	}
	res := &Result{Grouped: s.By != FieldNone, Windowed: s.Window > 0}
	for _, c := range s.Cols {
		res.Cols = append(res.Cols, c.String())
	}
	res.Rows = run.rows()
	return res, stats, nil
}

// rows finishes every cell straight into its result row, in row order
// (cellIndex.order): by group, then bucket.
func (a *aggRun) rows() []Row {
	cells := len(a.index.keys)
	if cells == 0 {
		return nil
	}
	byRow := a.index.order()
	w := len(a.cols)
	rows := make([]Row, cells)
	out := make([]Value, cells*w) // every row's Vals, carved from one array
	for r, c := range byRow {
		k := a.index.keys[c]
		rows[r] = Row{Group: k.group, Bucket: k.bucket, Vals: out[r*w : (r+1)*w : (r+1)*w]}
	}
	for i := range a.cols {
		if c := &a.cols[i]; c.agg.Kind.folds() {
			for r, cell := range byRow {
				rows[r].Vals[i] = finish(c.agg, c.st[cell])
			}
		}
	}
	if len(a.arenas) > 0 {
		// Counting sort by cell, the cells laid out in row order:
		// next[c] runs from start[c], the start of cell c's values, to
		// their end as they are placed.
		start := make([]int, cells)
		for _, c := range a.arenaCell {
			start[c]++
		}
		off := 0
		for _, c := range byRow {
			off, start[c] = off+start[c], off
		}
		next := make([]int, cells)
		sorted := make([]int64, len(a.arenaCell))
		for ai := range a.arenas {
			copy(next, start)
			bycell(sorted, next, a.arenaCell, a.arenas[ai].vals)
			for i := range a.cols {
				c := &a.cols[i]
				if c.agg.Kind.folds() || c.arena != ai {
					continue
				}
				for r, cell := range byRow {
					rows[r].Vals[i] = finishVals(c.agg, sorted[start[cell]:next[cell]], 0)
				}
			}
		}
	}
	return rows
}

// bycell scatters vals into dst grouped by cell, keeping scan order
// within a cell: next[c] is where cell c's next value goes, and ends at
// the cell's end.
//
//lint:hotpath once per matched tuple per value arena
func bycell(dst []int64, next []int, cell []int32, vals []int64) {
	vals = vals[:len(cell)]
	for i, c := range cell {
		dst[next[c]] = vals[i]
		next[c]++
	}
}
