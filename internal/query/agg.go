package query

import (
	"slices"

	"eventspace/internal/analysis"
	"eventspace/internal/archive"
	"eventspace/internal/collect"
	"eventspace/internal/hrtime"
)

// The one definition of every aggregate, shared by the archive select
// (run.go: many cells, a batch at a time) and the alert engine (aggEnv:
// one cell, a window slice at a time). An aggregate either folds — its
// cell state is two words, updated per value — or needs the cell's
// values side by side (order statistics, distinct counts). Either way
// it reads one field, extracted from a batch as a column first, so the
// per-value loops carry no per-tuple dispatch.

// aggState is one cell's fold of one aggregate: n counts the values
// seen; v is the running sum (sum, mean), extreme (min, max) or hit
// count (errors).
type aggState struct{ n, v int64 }

// folds reports whether the aggregate accumulates into an aggState; the
// rest are computed by finishVals from the cell's collected values.
func (k AggKind) folds() bool {
	switch k {
	case AggCount, AggErrors, AggSum, AggMean, AggMin, AggMax:
		return true
	}
	return false
}

// field is the tuple field the aggregate reads: its argument, or the
// one its definition implies. count() reads none.
func (a *Agg) field() Field {
	switch a.Kind {
	case AggErrors:
		return FieldRet
	case AggCoverage:
		return FieldECID
	}
	return a.Arg
}

// fieldColumns is the set of archive columns a field is computed from.
func fieldColumns(f Field) archive.Columns {
	switch f {
	case FieldECID:
		return archive.ColECID
	case FieldOp:
		return archive.ColOp
	case FieldRet:
		return archive.ColRet
	case FieldSeq:
		return archive.ColSeq
	case FieldStart:
		return archive.ColStart
	case FieldEnd:
		return archive.ColEnd
	case FieldLatency:
		return archive.ColStart | archive.ColEnd
	}
	return 0
}

// exprColumns is the set of archive columns a row-context expression
// reads.
func exprColumns(e Expr) archive.Columns {
	switch n := e.(type) {
	case *FieldRef:
		return fieldColumns(n.F)
	case *Not:
		return exprColumns(n.X)
	case *In:
		return exprColumns(n.X)
	case *Binary:
		return exprColumns(n.X) | exprColumns(n.Y)
	}
	return 0
}

// fieldVals extracts field f of every tuple into dst, which must be at
// least as long as the batch.
//
//lint:hotpath once per batch per distinct aggregate field
func fieldVals(dst []int64, batch []collect.TraceTuple, f Field) {
	dst = dst[:len(batch)]
	switch f {
	case FieldECID:
		for i := range batch {
			dst[i] = int64(batch[i].ECID)
		}
	case FieldOp:
		for i := range batch {
			dst[i] = int64(batch[i].Op)
		}
	case FieldRet:
		for i := range batch {
			dst[i] = int64(batch[i].Ret)
		}
	case FieldSeq:
		for i := range batch {
			dst[i] = int64(batch[i].Seq)
		}
	case FieldStart:
		for i := range batch {
			dst[i] = batch[i].Start
		}
	case FieldEnd:
		for i := range batch {
			dst[i] = batch[i].End
		}
	case FieldLatency:
		for i := range batch {
			dst[i] = batch[i].End - batch[i].Start
		}
	}
}

// accumulate folds one batch into the per-cell states of one folding
// aggregate: cell[i] is tuple i's cell, vals[i] its value of the
// aggregate's field (count() reads no field and ignores vals).
//
//lint:hotpath once per batch per folding select column
func accumulate(k AggKind, st []aggState, cell []int32, vals []int64) {
	switch k {
	case AggCount:
		for _, c := range cell {
			st[c].n++
		}
	case AggErrors:
		vals = vals[:len(cell)]
		for i, c := range cell {
			s := &st[c]
			s.n++
			if vals[i] < 0 {
				s.v++
			}
		}
	case AggSum, AggMean:
		vals = vals[:len(cell)]
		for i, c := range cell {
			s := &st[c]
			s.n++
			s.v += vals[i]
		}
	case AggMin:
		vals = vals[:len(cell)]
		for i, c := range cell {
			s := &st[c]
			if v := vals[i]; s.n == 0 || v < s.v {
				s.v = v
			}
			s.n++
		}
	case AggMax:
		vals = vals[:len(cell)]
		for i, c := range cell {
			s := &st[c]
			if v := vals[i]; s.n == 0 || v > s.v {
				s.v = v
			}
			s.n++
		}
	}
}

// finish turns a folded state into the aggregate's value. An empty cell
// yields the zero of the aggregate's kind — the honest answer for
// "nothing in the window".
func finish(a *Agg, s aggState) Value {
	switch a.Kind {
	case AggCount:
		return Value{K: KInt, I: s.n}
	case AggErrors:
		return Value{K: KInt, I: s.v}
	case AggMean:
		if s.n == 0 {
			return Value{K: a.typ()}
		}
		if a.typ() == KDur {
			return Value{K: KDur, I: s.v / s.n}
		}
		return Value{K: KFloat, F: float64(s.v) / float64(s.n)}
	default: // sum, min, max
		return Value{K: fieldKind(a.Arg), I: s.v}
	}
}

// finishVals computes a non-folding aggregate from one cell's values,
// which it reorders in place. expected is the coverage() denominator
// (the collector roster size).
func finishVals(a *Agg, vals []int64, expected int) Value {
	switch a.Kind {
	case AggDistinct:
		return Value{K: KInt, I: distinct(vals)}
	case AggCoverage:
		if expected <= 0 {
			return Value{K: KFloat}
		}
		return Value{K: KFloat, F: float64(distinct(vals)) / float64(expected)}
	}
	// median, p50, p90, p99
	if len(vals) == 0 {
		return Value{K: fieldKind(a.Arg)}
	}
	q := 0.50
	switch a.Kind {
	case AggP90:
		q = 0.90
	case AggP99:
		q = 0.99
	}
	// Nearest-rank percentile: the smallest value with at least q*n
	// values at or below it.
	idx := int(q*float64(len(vals))+0.9999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(vals) {
		idx = len(vals) - 1
	}
	return Value{K: fieldKind(a.Arg), I: analysis.SelectKth(vals, idx)}
}

// distinct counts the distinct values in vals, sorting it.
func distinct(vals []int64) int64 {
	slices.Sort(vals)
	var n int64
	for i, v := range vals {
		if i == 0 || v != vals[i-1] {
			n++
		}
	}
	return n
}

// aggEnv is the tuple scope an alert condition evaluates against at one
// tick: the group's query-window tuples, the full (all-group) retained
// buffer for private-window aggregates, the tick stamp, and the
// coverage roster size. The engine owns one and reuses its scratch from
// tick to tick, so evaluating an aggregate allocates nothing once warm.
type aggEnv struct {
	group     []collect.TraceTuple // this group's tuples in the query window
	windowAll []collect.TraceTuple // all groups' tuples in the query window
	all       []collect.TraceTuple // full retained buffer (private windows)
	tick      hrtime.Stamp
	expected  int

	private []collect.TraceTuple // private-window filter of all
	vals    []int64              // the aggregate's field, as a column
	cell    []int32              // all zero: the one cell a tick's aggregate has
}

// computeAgg evaluates one aggregate over a tuple set as a single cell.
func (env *aggEnv) computeAgg(a *Agg, tuples []collect.TraceTuple) Value {
	n := len(tuples)
	if cap(env.vals) < n {
		env.vals = slices.Grow(env.vals[:0], n)
		env.cell = make([]int32, cap(env.vals))
	}
	vals := env.vals[:n]
	fieldVals(vals, tuples, a.field())
	if !a.Kind.folds() {
		return finishVals(a, vals, env.expected)
	}
	var st [1]aggState
	accumulate(a.Kind, st[:], env.cell[:n], vals)
	return finish(a, st[0])
}

// evalWhen evaluates an aggregate-context expression. Aggregates with a
// private window select tuples from the full retained buffer (all
// groups) within (tick-window, tick]; coverage() always counts across
// all groups, bounded by the query window unless it carries its own.
func evalWhen(e Expr, env *aggEnv) Value {
	switch n := e.(type) {
	case *Lit:
		return n.Val
	case *Agg:
		tuples := env.group
		if n.Kind == AggCoverage {
			tuples = env.windowAll
		}
		if n.Window > 0 {
			env.private = env.private[:0]
			lo := env.tick - int64(n.Window)
			for _, t := range env.all {
				if t.Start > lo && t.Start <= env.tick {
					env.private = append(env.private, t)
				}
			}
			tuples = env.private
		}
		return env.computeAgg(n, tuples)
	case *Not:
		return boolValue(!evalWhen(n.X, env).Bool())
	case *In:
		return evalIn(n, evalWhen(n.X, env))
	case *Binary:
		return evalBinary(n, evalWhen(n.X, env), evalWhen(n.Y, env))
	}
	return Value{}
}
