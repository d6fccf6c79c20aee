package cfg

import (
	"go/ast"
	"testing"
)

func TestDefUseDirectCallInCondition(t *testing.T) {
	src := `package p
func classify(err error) bool { return err != nil }
func f(err error) {
	if classify(err) {
		_ = err
	}
}`
	fn, info, _ := parseFunc(t, src, "f")
	du := NewDefUse(info, fn.Body)
	cond := fn.Body.List[0].(*ast.IfStmt).Cond
	ok := du.FlowsFromCall(info, cond, func(c *ast.CallExpr) bool {
		id, isIdent := c.Fun.(*ast.Ident)
		return isIdent && id.Name == "classify"
	})
	if !ok {
		t.Fatal("direct classifier call in condition not seen")
	}
}

func TestDefUseThroughBoolVariable(t *testing.T) {
	src := `package p
func classify(err error) bool { return err != nil }
func f(err error) {
	retryable := classify(err)
	if retryable {
		_ = err
	}
}`
	fn, info, _ := parseFunc(t, src, "f")
	du := NewDefUse(info, fn.Body)
	cond := fn.Body.List[1].(*ast.IfStmt).Cond
	ok := du.FlowsFromCall(info, cond, func(c *ast.CallExpr) bool {
		id, isIdent := c.Fun.(*ast.Ident)
		return isIdent && id.Name == "classify"
	})
	if !ok {
		t.Fatal("classifier result flowing through a bool variable not seen")
	}
}

func TestDefUseTupleAssignment(t *testing.T) {
	src := `package p
func pair() (int, error) { return 0, nil }
func f() {
	v, err := pair()
	_, _ = v, err
}`
	fn, info, _ := parseFunc(t, src, "f")
	du := NewDefUse(info, fn.Body)
	// Both v and err must record the pair() call as their definition.
	assign := fn.Body.List[0].(*ast.AssignStmt)
	for _, lhs := range assign.Lhs {
		obj := lhsObject(info, lhs)
		if obj == nil {
			t.Fatalf("no object for %v", lhs)
		}
		defs := du.DefExprs(obj)
		if len(defs) != 1 {
			t.Fatalf("%s: got %d defs, want 1", obj.Name(), len(defs))
		}
		if _, ok := defs[0].(*ast.CallExpr); !ok {
			t.Fatalf("%s: def is %T, want *ast.CallExpr", obj.Name(), defs[0])
		}
	}
}

func TestDefUseRangeVariables(t *testing.T) {
	src := `package p
func f(xs []int) {
	for i, x := range xs {
		_, _ = i, x
	}
}`
	fn, info, _ := parseFunc(t, src, "f")
	du := NewDefUse(info, fn.Body)
	rng := fn.Body.List[0].(*ast.RangeStmt)
	for _, lhs := range []ast.Expr{rng.Key, rng.Value} {
		obj := lhsObject(info, lhs)
		if obj == nil {
			t.Fatalf("no object for range variable %v", lhs)
		}
		defs := du.DefExprs(obj)
		if len(defs) != 1 {
			t.Fatalf("range var %s: got %d defs, want 1", obj.Name(), len(defs))
		}
	}
}

func TestDefUseNoDefinitionForParam(t *testing.T) {
	src := `package p
func f(err error) { _ = err }`
	fn, info, _ := parseFunc(t, src, "f")
	du := NewDefUse(info, fn.Body)
	cond := fn.Body.List[0].(*ast.AssignStmt).Rhs[0]
	if du.FlowsFromCall(info, cond, func(*ast.CallExpr) bool { return true }) {
		t.Fatal("a bare parameter read must not match any call")
	}
}
