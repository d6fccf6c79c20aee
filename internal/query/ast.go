// Package query implements esql, the EventSpace trace query language:
// a lexer, recursive-descent parser, typed AST, and an evaluator over
// 28-byte trace tuples — both offline against a trace archive (with
// static pushdown of the predicate into the archive's header-index and
// columnar block-skip paths, see pushdown.go) and *continuously* over
// the live gather stream (engine.go), where standing `alert when ...`
// queries fire first-class OpAlert control tuples that are archived and
// replay byte-identically.
//
// The language, informally (DESIGN.md §14 has the full grammar):
//
//	select * where ecid in (1, 2) and op == read and latency > 500us limit 10
//	select count(), errors(), mean(latency) by ecid where start >= 2us window 1ms
//	alert when p99(latency) > 2 * median(latency, 1m) by ecid every 100us
//	alert when coverage() < 1.0 for 3 rounds every 1ms
//
// Fields: ecid, op, ret, seq, start, end, latency (= end - start).
// Aggregates: count, sum, mean, min, max, median, p50, p90, p99,
// errors (count of tuples with ret < 0), distinct (distinct values),
// coverage (distinct ecids seen / expected ecids). An aggregate's
// optional second argument is a private window; such aggregates are
// evaluated ungrouped (over all groups), which is what makes
// "per-collector p99 versus the global 1-minute median" expressible.
package query

import (
	"fmt"
	"strings"
	"time"

	"eventspace/internal/collect"
	"eventspace/internal/paths"
)

// Field names a trace-tuple column.
type Field uint8

// Trace-tuple fields.
const (
	FieldNone Field = iota
	FieldECID
	FieldOp
	FieldRet
	FieldSeq
	FieldStart
	FieldEnd
	FieldLatency
)

// String returns the esql spelling of the field.
func (f Field) String() string {
	switch f {
	case FieldECID:
		return "ecid"
	case FieldOp:
		return "op"
	case FieldRet:
		return "ret"
	case FieldSeq:
		return "seq"
	case FieldStart:
		return "start"
	case FieldEnd:
		return "end"
	case FieldLatency:
		return "latency"
	default:
		return fmt.Sprintf("field(%d)", uint8(f))
	}
}

// fieldByName resolves an identifier to a field.
func fieldByName(s string) (Field, bool) {
	switch s {
	case "ecid":
		return FieldECID, true
	case "op":
		return FieldOp, true
	case "ret":
		return FieldRet, true
	case "seq":
		return FieldSeq, true
	case "start":
		return FieldStart, true
	case "end":
		return FieldEnd, true
	case "latency":
		return FieldLatency, true
	}
	return FieldNone, false
}

// Kind is an esql value type.
type Kind uint8

// Value kinds. Int covers ecid/ret/seq and integer literals; Dur covers
// start/end/latency (nanoseconds of modelled time) and duration
// literals; Float covers fractional literals and mean/coverage results;
// Op is an operation-kind literal (read/write/alert); Bool is the
// result of comparisons and boolean combinators.
const (
	KInvalid Kind = iota
	KInt
	KDur
	KFloat
	KOp
	KBool
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KInt:
		return "int"
	case KDur:
		return "duration"
	case KFloat:
		return "float"
	case KOp:
		return "op"
	case KBool:
		return "bool"
	default:
		return "invalid"
	}
}

// Value is an evaluated esql value. Int, Dur, Op and Bool live in I
// (Bool as 0/1); Float lives in F.
type Value struct {
	K Kind
	I int64
	F float64
}

// numeric reports whether the value participates in arithmetic and
// ordered comparisons.
func (v Value) numeric() bool { return v.K == KInt || v.K == KDur || v.K == KFloat }

// asFloat widens a numeric value to float64.
func (v Value) asFloat() float64 {
	if v.K == KFloat {
		return v.F
	}
	return float64(v.I)
}

// Bool unpacks a KBool value.
func (v Value) Bool() bool { return v.K == KBool && v.I != 0 }

// String renders the value in its esql literal form (durations use the
// Go duration syntax esql shares).
func (v Value) String() string {
	switch v.K {
	case KInt:
		return fmt.Sprintf("%d", v.I)
	case KDur:
		return time.Duration(v.I).String()
	case KFloat:
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", v.F), "0"), ".")
	case KOp:
		return paths.OpKind(v.I).String()
	case KBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	default:
		return "invalid"
	}
}

// AggKind names an aggregate function.
type AggKind uint8

// Aggregate functions.
const (
	AggNone AggKind = iota
	AggCount
	AggSum
	AggMean
	AggMin
	AggMax
	AggMedian
	AggP50
	AggP90
	AggP99
	AggErrors
	AggDistinct
	AggCoverage
)

// String returns the esql spelling of the aggregate.
func (a AggKind) String() string {
	switch a {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMean:
		return "mean"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggMedian:
		return "median"
	case AggP50:
		return "p50"
	case AggP90:
		return "p90"
	case AggP99:
		return "p99"
	case AggErrors:
		return "errors"
	case AggDistinct:
		return "distinct"
	case AggCoverage:
		return "coverage"
	default:
		return fmt.Sprintf("agg(%d)", uint8(a))
	}
}

// aggByName resolves an identifier to an aggregate kind.
func aggByName(s string) (AggKind, bool) {
	switch s {
	case "count":
		return AggCount, true
	case "sum":
		return AggSum, true
	case "mean":
		return AggMean, true
	case "min":
		return AggMin, true
	case "max":
		return AggMax, true
	case "median":
		return AggMedian, true
	case "p50":
		return AggP50, true
	case "p90":
		return AggP90, true
	case "p99":
		return AggP99, true
	case "errors":
		return AggErrors, true
	case "distinct":
		return AggDistinct, true
	case "coverage":
		return AggCoverage, true
	}
	return AggNone, false
}

// needsArg reports whether the aggregate takes a field argument.
// count/errors/coverage are nullary.
func (a AggKind) needsArg() bool {
	switch a {
	case AggCount, AggErrors, AggCoverage:
		return false
	}
	return true
}

// Expr is an esql expression node: one of *Lit, *FieldRef, *Agg, *Not,
// *Binary or *In. Every node renders back to canonical esql via String —
// Parse(expr.String()) yields an equal tree, which the golden corpus and
// the parser fuzzer both pin down.
type Expr interface {
	String() string
}

// Lit is a literal value.
type Lit struct {
	Val Value
}

func (l *Lit) String() string { return l.Val.String() }

// FieldRef reads a tuple field. Legal in row context (where clauses and
// aggregate arguments), illegal at the top level of an alert condition.
type FieldRef struct {
	F Field
}

func (f *FieldRef) String() string { return f.F.String() }

// fieldKind maps a field to its value kind.
func fieldKind(f Field) Kind {
	switch f {
	case FieldECID, FieldRet, FieldSeq:
		return KInt
	case FieldOp:
		return KOp
	case FieldStart, FieldEnd, FieldLatency:
		return KDur
	default:
		return KInvalid
	}
}

// Agg is an aggregate call over the rows in scope (a group and window
// for grouped queries). A non-zero Window is the aggregate's private
// window; such calls are evaluated over *all* groups, so a grouped
// condition can compare a per-group statistic to a global baseline.
type Agg struct {
	Kind   AggKind
	Arg    Field         // FieldNone for nullary aggregates
	Window time.Duration // 0: the query window
}

func (a *Agg) String() string {
	var b strings.Builder
	b.WriteString(a.Kind.String())
	b.WriteByte('(')
	if a.Arg != FieldNone {
		b.WriteString(a.Arg.String())
	}
	if a.Window > 0 {
		if a.Arg != FieldNone {
			b.WriteString(", ")
		}
		b.WriteString(a.Window.String())
	}
	b.WriteByte(')')
	return b.String()
}

func (a *Agg) typ() Kind {
	switch a.Kind {
	case AggCount, AggErrors, AggDistinct:
		return KInt
	case AggCoverage:
		return KFloat
	case AggMean:
		// Mean of a duration field truncates to whole nanoseconds (the
		// same integer division the archive's summaries use); means of
		// integer fields stay fractional.
		if fieldKind(a.Arg) == KDur {
			return KDur
		}
		return KFloat
	default: // sum/min/max/median/p* take their argument's kind
		return fieldKind(a.Arg)
	}
}

// Not negates a boolean expression.
type Not struct {
	X Expr
}

func (n *Not) String() string { return "not " + maybeParen(n.X) }

// BinOp is a binary operator token.
type BinOp uint8

// Binary operators, in increasing precedence groups: or < and <
// comparisons < additive < multiplicative.
const (
	OpOr BinOp = iota
	OpAnd
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
)

// String returns the operator's esql spelling.
func (o BinOp) String() string {
	switch o {
	case OpOr:
		return "or"
	case OpAnd:
		return "and"
	case OpEq:
		return "=="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	default:
		return fmt.Sprintf("binop(%d)", uint8(o))
	}
}

// prec returns the operator's precedence (higher binds tighter).
func (o BinOp) prec() int {
	switch o {
	case OpOr:
		return 1
	case OpAnd:
		return 2
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return 3
	case OpAdd, OpSub:
		return 4
	default: // OpMul, OpDiv
		return 5
	}
}

// Binary applies a binary operator.
type Binary struct {
	Op   BinOp
	X, Y Expr
	t    Kind
}

func (b *Binary) String() string {
	x, y := b.X.String(), b.Y.String()
	if sub, ok := b.X.(*Binary); ok && sub.Op.prec() < b.Op.prec() {
		x = "(" + x + ")"
	}
	if sub, ok := b.Y.(*Binary); ok && sub.Op.prec() <= b.Op.prec() {
		y = "(" + y + ")"
	}
	if _, ok := b.Y.(*Not); ok {
		y = "(" + y + ")"
	}
	return x + " " + b.Op.String() + " " + y
}

// In is set membership: X in (v1, v2, ...) / X not in (...).
type In struct {
	X    Expr
	Neg  bool
	List []Value
}

func (in *In) String() string {
	var b strings.Builder
	b.WriteString(maybeParen(in.X))
	if in.Neg {
		b.WriteString(" not")
	}
	b.WriteString(" in (")
	for i, v := range in.List {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// maybeParen wraps composite operands so the canonical form re-parses
// unambiguously.
func maybeParen(e Expr) string {
	switch e.(type) {
	case *Binary, *In, *Not:
		return "(" + e.String() + ")"
	}
	return e.String()
}

// Stmt is a parsed, checked esql statement: either a select query
// (offline, over an archive) or an alert query (a standing continuous
// query for the live engine, also runnable offline as a replay).
type Stmt struct {
	// Alert distinguishes `alert when ...` from `select ...`.
	Alert bool
	// Star is `select *`: stream matching tuples instead of aggregating.
	Star bool
	// Cols are the select list's aggregate calls (empty when Star).
	Cols []*Agg
	// Where filters rows (select queries; row context).
	Where Expr
	// When is the alert condition (aggregate context).
	When Expr
	// By is the grouping field (FieldNone: ungrouped). Only ecid may be
	// grouped on — it is the one identity column of the tuple format.
	By Field
	// Window is the aggregation window over tuple Start stamps. For
	// select queries 0 means "one bucket spanning everything"; for
	// alerts the checker defaults it to Every.
	Window time.Duration
	// Every is the alert evaluation tick: the condition is re-evaluated
	// whenever the stream's Start-stamp watermark crosses a multiple of
	// it. The checker defaults it to Window, and to 1ms if both are
	// unset.
	Every time.Duration
	// For is the consecutive-tick count an alert condition must hold
	// before firing (default 1). The alert fires once on the For-th
	// tick and re-arms when the condition next turns false.
	For int
	// Limit stops a select-* stream after N rows (0: unbounded).
	Limit int
}

// String renders the statement in canonical esql. Parse(s.String())
// yields an equal statement, and the FNV-64 hash of this rendering is
// the query's identity in alert tuples.
func (s *Stmt) String() string {
	var b strings.Builder
	if s.Alert {
		b.WriteString("alert when ")
		b.WriteString(s.When.String())
	} else {
		b.WriteString("select ")
		if s.Star {
			b.WriteByte('*')
		} else {
			for i, c := range s.Cols {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(c.String())
			}
		}
		if s.Where != nil {
			b.WriteString(" where ")
			b.WriteString(s.Where.String())
		}
	}
	if s.By != FieldNone {
		b.WriteString(" by ")
		b.WriteString(s.By.String())
	}
	if s.Window > 0 {
		b.WriteString(" window ")
		b.WriteString(s.Window.String())
	}
	if s.Alert && s.Every > 0 && s.Every != s.Window {
		b.WriteString(" every ")
		b.WriteString(s.Every.String())
	}
	if s.For > 1 {
		fmt.Fprintf(&b, " for %d rounds", s.For)
	}
	if s.Limit > 0 {
		fmt.Fprintf(&b, " limit %d", s.Limit)
	}
	return b.String()
}

// Hash returns the FNV-64 hash of the statement's canonical rendering —
// the query identity recorded in alert control tuples.
func (s *Stmt) Hash() uint64 { return collect.HashName(s.String()) }
