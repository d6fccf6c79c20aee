package query

import (
	"fmt"
	"sort"

	"eventspace/internal/archive"
	"eventspace/internal/collect"
	"eventspace/internal/hrtime"
)

// The tuple-materialising aggregate path the streaming one (run.go,
// agg.go) replaced, the map-backed cell index and row sort the
// open-addressed table and counting pass replaced, and the full-buffer
// tick the cursor one (engine.go) replaced, kept as the references the
// differential tests compare against: plain, obviously right, and slow.
// Their shared pieces are bucketOf — the references had the truncating
// bucket and tick anchor the product fixed, and a reference that
// disagrees on purpose proves nothing — and the engine's judge, prune
// and state.

// refComputeAgg evaluates one aggregate over a materialised tuple set:
// a map per distinct count, a fresh sorted copy per percentile.
// expected is the coverage() denominator.
func refComputeAgg(a *Agg, tuples []collect.TraceTuple, expected int) Value {
	switch a.Kind {
	case AggCount:
		return Value{K: KInt, I: int64(len(tuples))}
	case AggErrors:
		var n int64
		for _, t := range tuples {
			if t.Ret < 0 {
				n++
			}
		}
		return Value{K: KInt, I: n}
	case AggCoverage:
		if expected <= 0 {
			return Value{K: KFloat}
		}
		seen := make(map[uint32]struct{}, expected)
		for _, t := range tuples {
			seen[t.ECID] = struct{}{}
		}
		return Value{K: KFloat, F: float64(len(seen)) / float64(expected)}
	case AggDistinct:
		seen := make(map[int64]struct{}, 16)
		for _, t := range tuples {
			seen[fieldVal(t, a.Arg)] = struct{}{}
		}
		return Value{K: KInt, I: int64(len(seen))}
	case AggSum:
		var s int64
		for _, t := range tuples {
			s += fieldVal(t, a.Arg)
		}
		return Value{K: fieldKind(a.Arg), I: s}
	case AggMean:
		if len(tuples) == 0 {
			return Value{K: a.typ()}
		}
		var s int64
		for _, t := range tuples {
			s += fieldVal(t, a.Arg)
		}
		if a.typ() == KDur {
			return Value{K: KDur, I: s / int64(len(tuples))}
		}
		return Value{K: KFloat, F: float64(s) / float64(len(tuples))}
	case AggMin, AggMax:
		if len(tuples) == 0 {
			return Value{K: fieldKind(a.Arg)}
		}
		best := fieldVal(tuples[0], a.Arg)
		for _, t := range tuples[1:] {
			v := fieldVal(t, a.Arg)
			if (a.Kind == AggMin && v < best) || (a.Kind == AggMax && v > best) {
				best = v
			}
		}
		return Value{K: fieldKind(a.Arg), I: best}
	case AggMedian, AggP50, AggP90, AggP99:
		if len(tuples) == 0 {
			return Value{K: fieldKind(a.Arg)}
		}
		vals := make([]int64, len(tuples))
		for i, t := range tuples {
			vals[i] = fieldVal(t, a.Arg)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		q := 0.50
		switch a.Kind {
		case AggP90:
			q = 0.90
		case AggP99:
			q = 0.99
		}
		// Nearest-rank percentile: the smallest value with at least
		// q*n values at or below it.
		idx := int(q*float64(len(vals))+0.9999999) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(vals) {
			idx = len(vals) - 1
		}
		return Value{K: fieldKind(a.Arg), I: vals[idx]}
	}
	return Value{}
}

// refRunQuery materialises every matching tuple under its cell, then
// computes each select column from the cell's tuple slice.
func refRunQuery(r *archive.Reader, s *Stmt, aq archive.Query) (*Result, archive.ScanStats, error) {
	if s.Alert {
		return nil, archive.ScanStats{}, fmt.Errorf("query: Run wants a select statement (replay alerts with an Engine)")
	}
	if s.Star {
		return nil, archive.ScanStats{}, fmt.Errorf("query: Run wants an aggregate select (stream select * with Scan)")
	}
	cells := make(map[cellKey][]collect.TraceTuple)
	var matched uint64
	stats, err := r.Scan(aq, func(t collect.TraceTuple) bool {
		if s.Where != nil && !evalRow(s.Where, t).Bool() {
			return true
		}
		matched++
		key := cellKey{}
		if s.By == FieldECID {
			key.group = t.ECID
		}
		if s.Window > 0 {
			key.bucket = bucketOf(t.Start, int64(s.Window))
		}
		cells[key] = append(cells[key], t)
		return true
	})
	stats.TuplesMatched = matched
	if err != nil {
		return nil, stats, err
	}
	res := &Result{Grouped: s.By != FieldNone, Windowed: s.Window > 0}
	for _, c := range s.Cols {
		res.Cols = append(res.Cols, c.String())
	}
	keys := make([]cellKey, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].group != keys[j].group {
			return keys[i].group < keys[j].group
		}
		return keys[i].bucket < keys[j].bucket
	})
	for _, k := range keys {
		row := Row{Group: k.group, Bucket: k.bucket}
		for _, c := range s.Cols {
			row.Vals = append(row.Vals, refComputeAgg(c, cells[k], 0))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, stats, nil
}

// refCellIndex is the cell index as a Go map behind the last-cell
// cache, with the rows' order from a comparison sort of the keys.
type refCellIndex struct {
	byECID bool
	window int64 // 0: unwindowed

	cells map[cellKey]int32
	keys  []cellKey // cell index -> key

	last    cellKey
	lastIdx int32 // -1: no cell resolved yet
}

func newRefCellIndex(byECID bool, window int64) *refCellIndex {
	return &refCellIndex{byECID: byECID, window: window, cells: make(map[cellKey]int32), lastIdx: -1}
}

func (x *refCellIndex) keyOf(t *collect.TraceTuple) cellKey {
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

func (x *refCellIndex) resolve(batch []collect.TraceTuple, cell []int32, from int) int {
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

func (x *refCellIndex) add(t *collect.TraceTuple) {
	k := x.keyOf(t)
	idx := int32(len(x.keys))
	x.cells[k] = idx
	x.keys = append(x.keys, k)
	x.last, x.lastIdx = k, idx
}

// order sorts the cell indexes by group, then bucket.
func (x *refCellIndex) order() []int32 {
	byRow := make([]int32, len(x.keys))
	for c := range byRow {
		byRow[c] = int32(c)
	}
	sort.Slice(byRow, func(i, j int) bool {
		a, b := x.keys[byRow[i]], x.keys[byRow[j]]
		if a.group != b.group {
			return a.group < b.group
		}
		return a.bucket < b.bucket
	})
	return byRow
}

// refOffer ingests one tuple the way the engine did before it took
// batches: every query's tick loop runs on every tuple, whether or not
// the watermark moved, and a tick is refTick.
func refOffer(e *Engine, t collect.TraceTuple) error {
	if t.ECID == collect.ControlECID {
		return nil
	}
	e.buf = append(e.buf, t)
	if !e.seeded || t.Start > e.watermark {
		e.watermark, e.seeded = t.Start, true
	}
	for _, st := range e.queries {
		every := int64(st.stmt.Every)
		if !st.anchored {
			st.anchored = true
			st.lastTick = bucketOf(e.watermark, every)
		}
		for e.watermark >= st.lastTick+every {
			st.lastTick += every
			if err := refTick(e, st, st.lastTick); err != nil {
				return err
			}
		}
	}
	e.prune()
	return nil
}

// refTick evaluates one standing query at tick stamp now from a fresh
// pass over the whole buffer, grouping through maps; judge and the
// trigger table are the engine's.
func refTick(e *Engine, st *standing, now hrtime.Stamp) error {
	lo := now - int64(st.stmt.Window)
	var inWin []collect.TraceTuple
	for _, t := range e.buf {
		if t.Start > lo && t.Start <= now {
			inWin = append(inWin, t)
		}
	}
	env := &e.env
	env.all, env.windowAll, env.tick, env.expected = e.buf, inWin, now, e.expected
	present := make(map[uint16]bool)
	if st.stmt.By == FieldECID {
		groups := make(map[uint16][]collect.TraceTuple)
		var order []uint16
		for _, t := range inWin {
			if t.ECID > 0xffff {
				return fmt.Errorf("query: ecid %d too large to group by", t.ECID)
			}
			g := uint16(t.ECID)
			if _, ok := groups[g]; !ok {
				order = append(order, g)
			}
			groups[g] = append(groups[g], t)
		}
		sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
		for _, g := range order {
			present[g] = true
			env.group = groups[g]
			if err := e.judge(st, g, now, env); err != nil {
				return err
			}
		}
	} else {
		present[0] = true
		env.group = inWin
		if err := e.judge(st, 0, now, env); err != nil {
			return err
		}
	}
	active := st.active[:0]
	for _, g := range st.active {
		if tr := &st.trig[g]; *tr != (trigger{}) && present[g] {
			active = append(active, g)
		} else {
			*tr = trigger{}
		}
	}
	st.active = active
	return nil
}
