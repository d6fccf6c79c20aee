package lint

import (
	"go/ast"

	"eventspace/internal/lint/cfg"
)

// Goroleak requires every goroutine started in an instrumented package
// to have a reachable stop path. The control-flow graph of the spawned
// body must be able to reach the function's exit: a select case on a
// stop/done channel that returns, a context-cancellation return, a
// bounded loop, or straight-line code all qualify. A body whose CFG can
// never terminate — for {} around a pull with no stop check, a select
// loop that observes its stop channel but never returns — is the
// Puller/Recorder leak class: the goroutine outlives its owner, holds
// its buffers and connections forever, and under the virtual clock
// keeps the model alive after the driver finished.
//
// Launches via both plain `go` statements and vclock.Go are checked for
// a stop path, and a plain `go` statement is a finding of its own:
// every goroutine here runs model code, and one the virtual clock did
// not start panics with vclock.ErrUnregistered when it parks (once the
// archive final-drain deadlock). Named package-local functions are resolved
// one level deep; dynamic callees (func values, cross-package calls)
// are skipped. Test files are exempt: test goroutines die with the
// test binary.
var Goroleak = &Analyzer{
	Name: "goroleak",
	Doc: "require every goroutine in instrumented packages to be a vclock.Go launch with a reachable stop path " +
		"(a terminating CFG: stop-channel return, context cancellation, or bounded loop); " +
		"non-terminating bodies are the Puller/Recorder leak class",
	Run: runGoroleak,
}

// goroutinePkgs are the packages whose goroutines must be provably
// stoppable and clock-registered: the instrumented set plus the core
// façade that owns recorder/monitor lifecycles.
var goroutinePkgs = func() map[string]bool {
	m := map[string]bool{"eventspace/internal/core": true}
	for p := range instrumentedPkgs {
		m[p] = true
	}
	return m
}()

func runGoroleak(pass *Pass) error {
	if !goroutinePkgs[pass.Pkg.Path] {
		return nil
	}
	decls := funcDecls(pass.Pkg)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fun, launch := launchSite(pass, n)
			if fun == nil || isTestFile(pass, n) {
				return true
			}
			if _, plain := n.(*ast.GoStmt); plain {
				pass.Reportf(n.Pos(),
					"plain go statement in %s: start it with vclock.Go — "+
						"an unregistered goroutine that parks on the virtual clock panics with vclock.ErrUnregistered "+
						"(the archive final-drain deadlock class)",
					pass.Pkg.Types.Name())
			}
			body, what := launchBody(pass.Pkg, decls, fun)
			if body == nil {
				return true
			}
			g := cfg.New(body)
			if g.ExitReachable() {
				return true
			}
			pass.Reportf(n.Pos(),
				"goroutine (%s) started by %s can never terminate: no return is reachable in its control flow; "+
					"add a stop path (select on a stop/done channel or ctx.Done() that returns, or bound the loop) — "+
					"leaked pullers and recorders outlive their owners and pin buffers and connections",
				what, launch)
			return true
		})
	}
	return nil
}

// launchSite matches the two goroutine launch shapes: a plain go
// statement, and vclock.Go(fn). Returns the expression that runs.
func launchSite(pass *Pass, n ast.Node) (fun ast.Expr, how string) {
	switch n := n.(type) {
	case *ast.GoStmt:
		return n.Call.Fun, "go statement"
	case *ast.CallExpr:
		if len(n.Args) == 1 && pkgFuncCall(pass.Pkg.Info, n, "eventspace/internal/vclock", "Go") {
			return n.Args[0], "vclock.Go"
		}
	}
	return nil, ""
}
