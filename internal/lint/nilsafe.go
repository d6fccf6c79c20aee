package lint

import (
	"go/ast"
	"go/types"
)

// NilSafe verifies the self-metrics disabled contract: a nil *Registry
// hands out nil *Op values and ignores Count, and every instrumented
// site calls them unconditionally, so every exported
// pointer-receiver method in the metrics package that touches receiver
// state must open with a nil guard. A missing guard turns the disabled
// configuration into a panic on the hot path.
var NilSafe = &Analyzer{
	Name: "nilsafe",
	Doc: "require exported pointer-receiver methods in the metrics package to guard r == nil " +
		"before touching fields; nil receivers are the documented disabled configuration",
	Run: runNilSafe,
}

func runNilSafe(pass *Pass) error {
	if !nilSafePkgs[pass.Pkg.Path] {
		return nil
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil || !fn.Name.IsExported() {
				continue
			}
			recvObj, recvType := recvPointerObj(info, fn)
			if recvObj == nil {
				continue
			}
			if guardedBeforeAccess(info, fn.Body, recvObj) {
				continue
			}
			pass.Reportf(fn.Name.Pos(),
				"exported method (*%s).%s touches receiver fields without an `if %s == nil` guard first; nil receivers are the disabled configuration and must stay no-ops",
				recvType, fn.Name.Name, recvObj.Name())
		}
	}
	return nil
}

// recvPointerObj returns the receiver variable and its base type name
// when fn has a named pointer receiver.
func recvPointerObj(info *types.Info, fn *ast.FuncDecl) (*types.Var, string) {
	if len(fn.Recv.List) != 1 || len(fn.Recv.List[0].Names) != 1 {
		return nil, "" // anonymous receiver can't be guarded
	}
	name := fn.Recv.List[0].Names[0]
	obj, ok := info.Defs[name].(*types.Var)
	if !ok {
		return nil, ""
	}
	ptr, ok := obj.Type().(*types.Pointer)
	if !ok {
		return nil, ""
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return nil, ""
	}
	return obj, named.Obj().Name()
}

// guardedBeforeAccess walks the body's top-level statements in order:
// a method is safe when it either never touches receiver fields, or an
// `if recv == nil { ... }` guard appears before the first statement
// that does.
func guardedBeforeAccess(info *types.Info, body *ast.BlockStmt, recv *types.Var) bool {
	for _, stmt := range body.List {
		if ifStmt, ok := stmt.(*ast.IfStmt); ok && isNilGuard(info, ifStmt, recv) {
			return true
		}
		if touchesField(info, stmt, recv) {
			return false
		}
	}
	return true
}

// touchesField reports whether n contains a field read or write of the
// receiver.
func touchesField(info *types.Info, n ast.Node, recv *types.Var) bool {
	found := false
	ast.Inspect(n, func(node ast.Node) bool {
		if found {
			return false
		}
		sel, ok := node.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		ident, ok := sel.X.(*ast.Ident)
		if !ok || info.Uses[ident] != recv {
			return true
		}
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
			found = true
			return false
		}
		return true
	})
	return found
}

// isNilGuard matches `if recv == nil { ... }` (or `if nil == recv`).
func isNilGuard(info *types.Info, ifStmt *ast.IfStmt, recv *types.Var) bool {
	if ifStmt.Init != nil {
		return false
	}
	bin, ok := ifStmt.Cond.(*ast.BinaryExpr)
	if !ok || bin.Op.String() != "==" {
		return false
	}
	isRecv := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && info.Uses[id] == recv
	}
	isNil := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		if !ok {
			return false
		}
		_, isNilConst := info.Uses[id].(*types.Nil)
		return isNilConst
	}
	return (isRecv(bin.X) && isNil(bin.Y)) || (isNil(bin.X) && isRecv(bin.Y))
}
