package query

import (
	"fmt"
	"sort"

	"eventspace/internal/archive"
	"eventspace/internal/collect"
)

// The tuple-materialising aggregate path the streaming one (run.go,
// agg.go) replaced, kept as the reference the differential tests
// compare against: plain, obviously right, and slow. Its one shared
// piece is bucketOf — the reference had the truncating bucket the
// streaming path fixed, and a reference that disagrees on purpose
// proves nothing.

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
