package query

import (
	"fmt"

	"eventspace/internal/archive"
	"eventspace/internal/collect"
	"eventspace/internal/hrtime"
)

// fieldVal extracts a field from a tuple as its raw int64.
func fieldVal(t collect.TraceTuple, f Field) int64 {
	switch f {
	case FieldECID:
		return int64(t.ECID)
	case FieldOp:
		return int64(t.Op)
	case FieldRet:
		return int64(t.Ret)
	case FieldSeq:
		return int64(t.Seq)
	case FieldStart:
		return t.Start
	case FieldEnd:
		return t.End
	case FieldLatency:
		return t.End - t.Start
	default:
		return 0
	}
}

// evalRow evaluates a row-context expression against one tuple. The
// expression must have passed checkExpr(rowCtx).
func evalRow(e Expr, t collect.TraceTuple) Value {
	switch n := e.(type) {
	case *Lit:
		return n.Val
	case *FieldRef:
		return Value{K: fieldKind(n.F), I: fieldVal(t, n.F)}
	case *Not:
		v := evalRow(n.X, t)
		return boolValue(!v.Bool())
	case *In:
		return evalIn(n, evalRow(n.X, t))
	case *Binary:
		return evalBinary(n, evalRow(n.X, t), evalRow(n.Y, t))
	}
	return Value{}
}

// boolValue packs a bool.
func boolValue(b bool) Value {
	if b {
		return Value{K: KBool, I: 1}
	}
	return Value{K: KBool}
}

// evalIn tests set membership of an evaluated operand.
func evalIn(n *In, x Value) Value {
	hit := false
	for _, v := range n.List {
		if x.K == KOp || v.K == KOp {
			if x.K == v.K && x.I == v.I {
				hit = true
				break
			}
			continue
		}
		if x.K == KFloat || v.K == KFloat {
			if x.asFloat() == v.asFloat() {
				hit = true
				break
			}
		} else if x.I == v.I {
			hit = true
			break
		}
	}
	return boolValue(hit != n.Neg)
}

// evalBinary applies a checked binary operator to evaluated operands.
func evalBinary(n *Binary, x, y Value) Value {
	switch n.Op {
	case OpAnd:
		return boolValue(x.Bool() && y.Bool())
	case OpOr:
		return boolValue(x.Bool() || y.Bool())
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return boolValue(compare(n.Op, x, y))
	case OpDiv:
		d := y.asFloat()
		if d == 0 {
			return Value{K: KFloat}
		}
		return Value{K: KFloat, F: x.asFloat() / d}
	default: // OpAdd, OpSub, OpMul
		if n.t == KFloat {
			var f float64
			switch n.Op {
			case OpAdd:
				f = x.asFloat() + y.asFloat()
			case OpSub:
				f = x.asFloat() - y.asFloat()
			default:
				f = x.asFloat() * y.asFloat()
			}
			return Value{K: KFloat, F: f}
		}
		var i int64
		switch n.Op {
		case OpAdd:
			i = x.I + y.I
		case OpSub:
			i = x.I - y.I
		default:
			i = x.I * y.I
		}
		return Value{K: n.t, I: i}
	}
}

// compare applies an ordered comparison. Mixed int/duration compare on
// raw nanoseconds; anything involving a float compares as float64.
func compare(op BinOp, x, y Value) bool {
	if x.K == KOp || y.K == KOp {
		switch op {
		case OpEq:
			return x.I == y.I
		case OpNe:
			return x.I != y.I
		}
		return false
	}
	if x.K == KFloat || y.K == KFloat {
		a, b := x.asFloat(), y.asFloat()
		switch op {
		case OpEq:
			return a == b
		case OpNe:
			return a != b
		case OpLt:
			return a < b
		case OpLe:
			return a <= b
		case OpGt:
			return a > b
		default:
			return a >= b
		}
	}
	a, b := x.I, y.I
	switch op {
	case OpEq:
		return a == b
	case OpNe:
		return a != b
	case OpLt:
		return a < b
	case OpLe:
		return a <= b
	case OpGt:
		return a > b
	default:
		return a >= b
	}
}

// Row is one result row of an aggregate select: its group key (ecid; 0
// when ungrouped), its window bucket (tuple-Start stamp of the bucket's
// left edge; 0 when unwindowed), and one value per select column.
type Row struct {
	Group  uint32
	Bucket hrtime.Stamp
	Vals   []Value
}

// Result is an aggregate select's output table, rows sorted by group
// then bucket — a pure function of the archive's tuples, so re-running
// the query renders byte-identically.
type Result struct {
	Cols     []string // canonical aggregate spellings
	Grouped  bool
	Windowed bool
	Rows     []Row
}

// Scan streams the tuples a select-* statement matches, in archive
// order, honoring the statement's Limit. The statement's predicate is
// compiled into a conservative archive.Query (see Pushdown) so the scan
// rides the header-index and columnar block-skip paths; the returned
// stats report the exact predicate's match count.
func Scan(r *archive.Reader, s *Stmt, fn func(collect.TraceTuple) bool) (archive.ScanStats, error) {
	return ScanQuery(r, s, s.Pushdown(), fn)
}

// ScanQuery is Scan with an explicit pushdown query — the benchmark
// harness passes a zero archive.Query to measure the full-scan
// baseline. aq must be conservative for s (Pushdown's contract).
func ScanQuery(r *archive.Reader, s *Stmt, aq archive.Query, fn func(collect.TraceTuple) bool) (archive.ScanStats, error) {
	if s.Alert || !s.Star {
		return archive.ScanStats{}, fmt.Errorf("query: Scan wants a select * statement")
	}
	var matched uint64
	stats, err := r.Scan(aq, func(t collect.TraceTuple) bool {
		if s.Where != nil && !evalRow(s.Where, t).Bool() {
			return true
		}
		matched++
		if !fn(t) {
			return false
		}
		return s.Limit == 0 || matched < uint64(s.Limit)
	})
	stats.TuplesMatched = matched
	return stats, err
}

// Run evaluates an aggregate select statement over an archive: matching
// tuples are grouped by the statement's By field and Window buckets,
// and every select column is computed per cell.
func Run(r *archive.Reader, s *Stmt) (*Result, archive.ScanStats, error) {
	return RunQuery(r, s, s.Pushdown())
}
