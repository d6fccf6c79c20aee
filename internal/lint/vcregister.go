package lint

import (
	"fmt"
	"go/ast"
)

// VCRegister enforces the virtual clock's conservatism contract
// (vclock package doc): every goroutine that executes modelled work —
// anything that parks on the discrete-event clock — must be a
// registered model participant, started with vclock.Go. A plain `go`
// goroutine that reaches a vclock-blocking call corrupts the runnable
// count: its sleep decrements a credit it never added, the clock runs
// ahead of (or stalls behind) the model, and the run deadlocks. This is
// exactly the PR-4 archive-drain bug — an unregistered driver goroutine
// pulling a scope during Stop — promoted from a runtime hang to a static
// error.
//
// "Reaches" is computed transitively over the package's own functions
// (a fixed point over local calls), with a curated table of blocking
// roots: the vclock primitives themselves, hrtime's clock-aware sleeps,
// and the cross-package model entry points (paths operations, escope
// pulls, vnet calls and occupancy). The deliberately-unregistered escape
// hatches (hrtime.SleepOutside, vclock.SleepOutside) are not roots. Test
// files are exempt: test drivers park on ordinary channels by design.
var VCRegister = &Analyzer{
	Name: "vcregister",
	Doc: "require goroutines that reach vclock-blocking calls (paths ops, escope pulls, " +
		"modelled sleeps) to be registered model goroutines, started with vclock.Go, " +
		"so an unregistered sleep cannot stall the virtual clock",
	Run: runVCRegister,
}

// vcBlockingFuncs are package-level functions that park the caller on
// the virtual clock.
var vcBlockingFuncs = map[[2]string]bool{
	{"eventspace/internal/vclock", "Sleep"}:         true,
	{"eventspace/internal/hrtime", "Sleep"}:         true,
	{"eventspace/internal/hrtime", "SleepUnscaled"}: true,
}

// vcBlockingMethods are methods — concrete or interface — that perform
// modelled blocking work. Receiver types resolve through pointers, and
// interface receivers (paths.Wrapper) cover every wrapper chain.
var vcBlockingMethods = map[[3]string]bool{
	{"eventspace/internal/vclock", "Cond", "Wait"}:      true,
	{"eventspace/internal/vclock", "Sem", "Acquire"}:    true,
	{"eventspace/internal/vclock", "WaitGroup", "Wait"}: true,
	{"eventspace/internal/vclock", "Event", "Wait"}:     true,
	{"eventspace/internal/vclock", "Queue", "Pop"}:      true,
	{"eventspace/internal/escope", "Scope", "Pull"}:     true,
	{"eventspace/internal/paths", "Wrapper", "Op"}:      true,
	{"eventspace/internal/paths", "Remote", "Op"}:       true,
	{"eventspace/internal/paths", "Gather", "Op"}:       true,
	{"eventspace/internal/paths", "Path", "Op"}:         true,
	{"eventspace/internal/paths", "BatchReader", "Op"}:  true,
	{"eventspace/internal/vnet", "Conn", "Call"}:        true,
	{"eventspace/internal/vnet", "Host", "Occupy"}:      true,
}

func runVCRegister(pass *Pass) error {
	if !goroutinePkgs[pass.Pkg.Path] {
		return nil
	}
	decls := funcDecls(pass.Pkg)

	// blocking maps each package-local function to an exemplar blocking
	// call it reaches ("" = not blocking), computed as a fixed point:
	// directly blocking bodies seed the set, then callers of blocking
	// local functions join it until nothing changes.
	blocking := make(map[*ast.BlockStmt]string)
	var bodies []*ast.BlockStmt
	bodyOf := make(map[string]*ast.BlockStmt)
	for fn, decl := range decls {
		if decl.Body != nil {
			bodies = append(bodies, decl.Body)
			bodyOf[fn.FullName()] = decl.Body
		}
	}
	describe := func(body *ast.BlockStmt) string {
		if root := directBlockingCall(pass, body); root != "" {
			return root
		}
		for _, callee := range localCallees(pass.Pkg, decls, body) {
			if calleeBody := bodyOf[callee.FullName()]; calleeBody != nil {
				if root := blocking[calleeBody]; root != "" {
					return fmt.Sprintf("%s (via %s)", root, callee.Name())
				}
			}
		}
		return ""
	}
	for changed := true; changed; {
		changed = false
		for _, body := range bodies {
			if blocking[body] != "" {
				continue
			}
			if root := describe(body); root != "" {
				blocking[body] = root
				changed = true
			}
		}
	}

	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			goStmt, ok := n.(*ast.GoStmt)
			if !ok || isTestFile(pass, n) {
				return true
			}
			body, what := launchBody(pass.Pkg, decls, goStmt.Call.Fun)
			if body == nil {
				return true
			}
			root := blocking[body]
			if root == "" {
				root = describe(body)
			}
			if root == "" {
				return true
			}
			pass.Reportf(goStmt.Pos(),
				"unregistered goroutine (%s) reaches the vclock-blocking call %s; "+
					"start it with vclock.Go — "+
					"an unregistered modelled wait corrupts the clock's runnable count and stalls RunVirtual "+
					"(the archive final-drain deadlock class)",
				what, root)
			return true
		})
	}
	return nil
}

// directBlockingCall returns a printable name of the first
// vclock-blocking call in body, "" when there is none.
func directBlockingCall(pass *Pass, body ast.Node) string {
	found := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(pass.Pkg.Info, call.Fun); fn != nil && fn.Pkg() != nil {
			if vcBlockingFuncs[[2]string{fn.Pkg().Path(), fn.Name()}] {
				found = shortPkg(fn.Pkg().Path()) + "." + fn.Name()
				return false
			}
		}
		if pkgPath, typ, meth, ok := methodCallOn(pass.Pkg.Info, call); ok {
			if vcBlockingMethods[[3]string{pkgPath, typ, meth}] {
				found = fmt.Sprintf("(%s.%s).%s", shortPkg(pkgPath), typ, meth)
				return false
			}
		}
		return true
	})
	return found
}

// shortPkg trims an import path to its final element for messages.
func shortPkg(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
