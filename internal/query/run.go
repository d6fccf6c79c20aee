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
// columns the statement reads. A batch is resolved once to a vector of
// cell indexes (a cell is one group × window bucket, one result row),
// then every select column runs one loop over it: folding aggregates
// update their per-cell states, the rest append their field to a flat
// arena. After the scan one counting sort by cell makes each cell's
// values contiguous and the order statistics are selected in place. No
// tuple outlives its batch.

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
// spans many of them — so the last cell sits in front of the map, and
// the bucket edge is recomputed only when Start leaves it.
type cellIndex struct {
	byECID bool
	window int64 // 0: unwindowed

	cells map[cellKey]int32
	keys  []cellKey // cell index -> key

	last    cellKey
	lastIdx int32 // -1: no cell resolved yet
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
			idx, ok := x.cells[k]
			if !ok {
				return i
			}
			x.last, x.lastIdx = k, idx
		}
		cell[i] = x.lastIdx
	}
	return len(batch)
}

// add creates t's cell and makes it the cached one.
func (x *cellIndex) add(t *collect.TraceTuple) {
	k := x.keyOf(t)
	idx := int32(len(x.keys))
	x.cells[k] = idx
	x.keys = append(x.keys, k)
	x.last, x.lastIdx = k, idx
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
	run.index = cellIndex{byECID: s.By == FieldECID, window: int64(s.Window), cells: make(map[cellKey]int32), lastIdx: -1}
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

// rows finishes every cell into its result row, sorted by group then
// bucket.
func (a *aggRun) rows() []Row {
	cells := len(a.index.keys)
	if cells == 0 {
		return nil
	}
	rows := make([]Row, cells)
	out := make([]Value, cells*len(a.cols)) // every row's Vals, carved from one array
	for c, k := range a.index.keys {
		rows[c] = Row{Group: k.group, Bucket: k.bucket, Vals: out[c*len(a.cols) : (c+1)*len(a.cols) : (c+1)*len(a.cols)]}
	}
	for i := range a.cols {
		if c := &a.cols[i]; c.agg.Kind.folds() {
			for cell := range rows {
				rows[cell].Vals[i] = finish(c.agg, c.st[cell])
			}
		}
	}
	if len(a.arenas) > 0 {
		// Counting sort by cell: end[c] runs from the start of cell c's
		// values to their end as they are placed.
		end := make([]int, cells+1)
		for _, c := range a.arenaCell {
			end[c+1]++
		}
		for c := 0; c < cells; c++ {
			end[c+1] += end[c]
		}
		start := slices.Clone(end)
		sorted := make([]int64, len(a.arenaCell))
		for ai := range a.arenas {
			copy(end, start)
			bycell(sorted, end, a.arenaCell, a.arenas[ai].vals)
			for i := range a.cols {
				c := &a.cols[i]
				if c.agg.Kind.folds() || c.arena != ai {
					continue
				}
				for cell := range rows {
					rows[cell].Vals[i] = finishVals(c.agg, sorted[start[cell]:end[cell]], 0)
				}
			}
		}
	}
	slices.SortFunc(rows, func(x, y Row) int {
		if c := cmp.Compare(x.Group, y.Group); c != 0 {
			return c
		}
		return cmp.Compare(x.Bucket, y.Bucket)
	})
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
