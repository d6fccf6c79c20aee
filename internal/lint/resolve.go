package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Shared call-resolution helpers for the dataflow analyzers: mapping
// goroutine launch sites to the bodies they run, and call expressions
// to the functions or methods they invoke.

// isTestFile reports whether pos sits in a _test.go file.
func isTestFile(pass *Pass, n ast.Node) bool {
	return strings.HasSuffix(pass.Pkg.Fset.Position(n.Pos()).Filename, "_test.go")
}

// funcDecls indexes a package's function declarations by their type
// objects, so call expressions and function values can be resolved back
// to bodies.
func funcDecls(pkg *Package) map[*types.Func]*ast.FuncDecl {
	idx := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if obj, ok := pkg.Info.Defs[fn.Name].(*types.Func); ok {
				idx[obj] = fn
			}
		}
	}
	return idx
}

// calleeFunc resolves a function-valued expression (an identifier or a
// method selector) to its *types.Func, nil when the value is dynamic
// (a func variable, field, or literal).
func calleeFunc(info *types.Info, e ast.Expr) *types.Func {
	switch e := e.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return fn
	case *ast.ParenExpr:
		return calleeFunc(info, e.X)
	}
	return nil
}

// launchBody resolves what a goroutine launch runs: a function literal
// returns its own body; a named package-local function or method
// returns that declaration's body. Cross-package and dynamic callees
// return nil (not analyzable here).
func launchBody(pkg *Package, decls map[*types.Func]*ast.FuncDecl, fun ast.Expr) (*ast.BlockStmt, string) {
	switch f := fun.(type) {
	case *ast.FuncLit:
		return f.Body, "func literal"
	case *ast.ParenExpr:
		return launchBody(pkg, decls, f.X)
	}
	if obj := calleeFunc(pkg.Info, fun); obj != nil {
		if decl, ok := decls[obj]; ok && decl.Body != nil {
			return decl.Body, obj.Name()
		}
	}
	return nil, ""
}

// pkgFuncCall reports whether call invokes the package-level function
// pkgPath.name (methods excluded).
func pkgFuncCall(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := calleeFunc(info, call.Fun)
	if fn == nil || fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// localCallees returns the package-local functions (and methods) a body
// calls directly, resolved through the declaration index.
func localCallees(pkg *Package, decls map[*types.Func]*ast.FuncDecl, body ast.Node) []*types.Func {
	var out []*types.Func
	seen := make(map[*types.Func]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pkg.Info, call.Fun)
		if fn == nil || seen[fn] {
			return true
		}
		if _, local := decls[fn]; local {
			seen[fn] = true
			out = append(out, fn)
		}
		return true
	})
	return out
}
