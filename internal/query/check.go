package query

import (
	"fmt"
	"time"

	"eventspace/internal/paths"
)

// opLiteral resolves an op-kind literal name.
func opLiteral(s string) (paths.OpKind, bool) {
	switch s {
	case "read":
		return paths.OpRead, true
	case "write":
		return paths.OpWrite, true
	case "alert":
		return paths.OpAlert, true
	}
	return 0, false
}

// exprCtx is the evaluation context an expression is checked against:
// row context (per-tuple predicates: fields yes, aggregates no) or
// aggregate context (alert conditions: aggregates yes, bare fields no).
type exprCtx uint8

const (
	rowCtx exprCtx = iota
	aggCtx
)

// checkStmt validates the statement, applies defaults, and type-checks
// every expression in its proper context.
func checkStmt(s *Stmt) error {
	if s.By != FieldNone && s.By != FieldECID {
		return fmt.Errorf("can only group by ecid, not %s", s.By)
	}
	if s.Alert {
		if s.When == nil {
			return fmt.Errorf("alert has no condition")
		}
		if s.Limit > 0 {
			return fmt.Errorf("\"limit\" is a select clause")
		}
		if k, err := checkExpr(s.When, aggCtx); err != nil {
			return err
		} else if k != KBool {
			return fmt.Errorf("alert condition is %s, not bool", k)
		}
		// Defaults: the tick and the window fall back to each other,
		// and to 1ms when neither is given.
		if s.Every == 0 {
			s.Every = s.Window
		}
		if s.Every == 0 {
			s.Every = time.Millisecond
		}
		if s.Window == 0 {
			s.Window = s.Every
		}
		if s.For == 0 {
			s.For = 1
		}
		return nil
	}
	if s.Every > 0 {
		return fmt.Errorf("\"every\" is an alert clause")
	}
	if s.For > 0 {
		return fmt.Errorf("\"for ... rounds\" is an alert clause")
	}
	if s.Where != nil {
		if k, err := checkExpr(s.Where, rowCtx); err != nil {
			return err
		} else if k != KBool {
			return fmt.Errorf("where clause is %s, not bool", k)
		}
	}
	if s.Star {
		if s.By != FieldNone {
			return fmt.Errorf("select * cannot group by %s", s.By)
		}
		if s.Window > 0 {
			return fmt.Errorf("select * takes no window")
		}
		return nil
	}
	if len(s.Cols) == 0 {
		return fmt.Errorf("empty select list")
	}
	if s.Limit > 0 {
		return fmt.Errorf("\"limit\" applies to select * only")
	}
	for _, c := range s.Cols {
		if err := checkAgg(c); err != nil {
			return err
		}
		if c.Window > 0 {
			return fmt.Errorf("%s: private aggregate windows are alert-only", c)
		}
		if c.Kind == AggCoverage {
			return fmt.Errorf("coverage() is only available in alert conditions")
		}
	}
	return nil
}

// checkAgg validates an aggregate call's argument arity and type.
func checkAgg(a *Agg) error {
	if !a.Kind.needsArg() {
		if a.Arg != FieldNone {
			return fmt.Errorf("%s() takes no field argument", a.Kind)
		}
		return nil
	}
	if a.Arg == FieldNone {
		return fmt.Errorf("%s() needs a field argument", a.Kind)
	}
	if a.Kind != AggDistinct && fieldKind(a.Arg) == KOp {
		return fmt.Errorf("%s(%s): op is not numeric (only distinct aggregates it)", a.Kind, a.Arg)
	}
	return nil
}

// checkExpr type-checks an expression tree in ctx and returns its kind.
func checkExpr(e Expr, ctx exprCtx) (Kind, error) {
	switch n := e.(type) {
	case *Lit:
		return n.Val.K, nil
	case *FieldRef:
		if ctx == aggCtx {
			return KInvalid, fmt.Errorf("field %s outside an aggregate in an alert condition", n.F)
		}
		return fieldKind(n.F), nil
	case *Agg:
		if ctx == rowCtx {
			return KInvalid, fmt.Errorf("aggregate %s in a per-tuple predicate", n)
		}
		if err := checkAgg(n); err != nil {
			return KInvalid, err
		}
		return n.typ(), nil
	case *Not:
		k, err := checkExpr(n.X, ctx)
		if err != nil {
			return KInvalid, err
		}
		if k != KBool {
			return KInvalid, fmt.Errorf("not applied to %s", k)
		}
		return KBool, nil
	case *In:
		k, err := checkExpr(n.X, ctx)
		if err != nil {
			return KInvalid, err
		}
		if len(n.List) == 0 {
			return KInvalid, fmt.Errorf("empty set in membership test")
		}
		for _, v := range n.List {
			if k == KOp {
				if v.K != KOp {
					return KInvalid, fmt.Errorf("op compared with %s in set", v.K)
				}
			} else if !v.numeric() || !(Value{K: k}).numeric() {
				return KInvalid, fmt.Errorf("%s value in %s membership test", v.K, k)
			}
		}
		return KBool, nil
	case *Binary:
		xk, err := checkExpr(n.X, ctx)
		if err != nil {
			return KInvalid, err
		}
		yk, err := checkExpr(n.Y, ctx)
		if err != nil {
			return KInvalid, err
		}
		k, err := binaryKind(n.Op, xk, yk)
		if err != nil {
			return KInvalid, err
		}
		n.t = k
		return k, nil
	}
	return KInvalid, fmt.Errorf("unsupported expression")
}

// binaryKind types a binary operator application.
func binaryKind(op BinOp, x, y Kind) (Kind, error) {
	num := func(k Kind) bool { return k == KInt || k == KDur || k == KFloat }
	switch op {
	case OpAnd, OpOr:
		if x != KBool || y != KBool {
			return KInvalid, fmt.Errorf("%s applied to %s and %s", op, x, y)
		}
		return KBool, nil
	case OpEq, OpNe:
		if x == KOp && y == KOp {
			return KBool, nil
		}
		fallthrough
	case OpLt, OpLe, OpGt, OpGe:
		if num(x) && num(y) {
			return KBool, nil
		}
		return KInvalid, fmt.Errorf("cannot compare %s with %s using %s", x, y, op)
	case OpDiv:
		if num(x) && num(y) {
			return KFloat, nil
		}
		return KInvalid, fmt.Errorf("cannot divide %s by %s", x, y)
	default: // OpAdd, OpSub, OpMul
		if !num(x) || !num(y) {
			return KInvalid, fmt.Errorf("arithmetic %s on %s and %s", op, x, y)
		}
		if x == KFloat || y == KFloat {
			return KFloat, nil
		}
		if x == KDur || y == KDur {
			return KDur, nil
		}
		return KInt, nil
	}
}
