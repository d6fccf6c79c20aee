package cfg

import (
	"go/ast"
	"go/types"
)

// DefUse indexes, for one function body, which expressions each local
// variable was assigned from. It is a flow-
// insensitive over-approximation: every assignment anywhere in the
// body counts as a possible definition, which is the conservative
// direction for the analyzers built on it (a value "may come from" a
// classifier call, a stop channel field, a context's Done channel).
type DefUse struct {
	defs map[types.Object][]ast.Expr
}

// NewDefUse builds the def-use index of a function body using the
// package's type information.
func NewDefUse(info *types.Info, body ast.Node) *DefUse {
	d := &DefUse{defs: make(map[types.Object][]ast.Expr)}
	if body == nil {
		return d
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			d.recordAssign(info, n.Lhs, n.Rhs)
		case *ast.ValueSpec:
			lhs := make([]ast.Expr, len(n.Names))
			for i, name := range n.Names {
				lhs[i] = name
			}
			d.recordAssign(info, lhs, n.Values)
		case *ast.RangeStmt:
			// Key and Value are defined from the ranged expression; the
			// element relationship is kept coarse (the whole X).
			for _, lhs := range []ast.Expr{n.Key, n.Value} {
				if obj := lhsObject(info, lhs); obj != nil {
					d.defs[obj] = append(d.defs[obj], n.X)
				}
			}
		}
		return true
	})
	return d
}

// recordAssign maps assignment targets to their source expressions:
// position-matched for 1:1 assignments, the shared right-hand side for
// tuple assignments (x, err := f()).
func (d *DefUse) recordAssign(info *types.Info, lhs, rhs []ast.Expr) {
	if len(rhs) == 0 {
		return // var x T — zero value, no defining expression
	}
	for i, l := range lhs {
		obj := lhsObject(info, l)
		if obj == nil {
			continue
		}
		src := rhs[0]
		if len(rhs) == len(lhs) {
			src = rhs[i]
		}
		d.defs[obj] = append(d.defs[obj], src)
	}
}

// lhsObject resolves an assignment target identifier to its object
// (definition or use, covering both := and =).
func lhsObject(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj, ok := info.Defs[id]; ok && obj != nil {
		return obj
	}
	return info.Uses[id]
}

// DefExprs returns every expression assigned to obj in the body, in
// encounter order. Empty means the variable has no in-body definition
// (a parameter, a captured outer variable, or declared without value).
func (d *DefUse) DefExprs(obj types.Object) []ast.Expr {
	return d.defs[obj]
}

// FlowsFromCall reports whether expr is — or, when expr is an
// identifier, any of its definitions is (one aliasing hop deep) — a
// call satisfying isMatch. It is how an analyzer sees through
//
//	ok := classify(err)
//	if ok { ... }
//
// as well as the direct `if classify(err)` form.
func (d *DefUse) FlowsFromCall(info *types.Info, expr ast.Expr, isMatch func(*ast.CallExpr) bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isMatch(n) {
				found = true
				return false
			}
		case *ast.Ident:
			obj, ok := info.Uses[n]
			if !ok {
				return true
			}
			for _, def := range d.DefExprs(obj) {
				if call, ok := def.(*ast.CallExpr); ok && isMatch(call) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}
