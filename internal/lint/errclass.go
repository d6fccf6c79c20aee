package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"eventspace/internal/lint/cfg"
)

// ErrClass requires retry and redial decisions to flow through the
// transport-vs-application error classifier. The paths package draws a
// hard line (errors.go): transport faults (ErrConnClosed, timeouts,
// net.OpError) are the caller's cue to redial or back off, while
// application errors from a healthy remote must surface unchanged —
// retrying those re-executes a side effect the remote already
// performed. The classifier functions paths.Retryable, paths.ConnDead,
// and paths.IsRemote (plus errors.Is/As against sentinel values)
// encode that line once.
//
// The analyzer finds calls to retry-shaped actions (redial, reconnect,
// noteFault, backoff growth) inside paths and escope, asks the CFG
// which branch conditions decide whether the action runs — the
// enclosing `if` and the early-return guard shapes both count — and
// flags actions whose decision set contains a raw error-nil comparison
// and no classifier verdict at all. `if err != nil { redial() }`
// treats a remote's application error as a dead transport; a success
// short-circuit above a Retryable test is fine, because the classifier
// still decides. The def-use chains see through
// `ok := paths.Retryable(err); if ok { redial() }`, so the fix is
// never forced to inline the classifier into the condition.
var ErrClass = &Analyzer{
	Name: "errclass",
	Doc: "require retry/redial/fault decisions in paths and escope to be decided by the " +
		"transport-vs-application classifier (paths.Retryable/ConnDead/IsRemote or " +
		"errors.Is/As), never by a raw err != nil test",
	Run: runErrClass,
}

// errclassPkgs are the packages whose retry decisions are checked: the
// transport layer itself and the scope runtime that drives it.
var errclassPkgs = map[string]bool{
	"eventspace/internal/paths":  true,
	"eventspace/internal/escope": true,
}

// errclassActionWords match callee names that commit to a retry
// decision (lowercased substring match: tryReconnect, growBackoff and
// plain Backoff all land).
var errclassActionWords = []string{"redial", "reconnect", "notefault", "backoff"}

// errclassClassifiers are the functions whose boolean verdicts are
// allowed to decide a retry.
var errclassClassifiers = map[[2]string]bool{
	{"eventspace/internal/paths", "Retryable"}: true,
	{"eventspace/internal/paths", "ConnDead"}:  true,
	{"eventspace/internal/paths", "IsRemote"}:  true,
	{"errors", "Is"}: true,
	{"errors", "As"}: true,
}

func runErrClass(pass *Pass) error {
	if !errclassPkgs[pass.Pkg.Path] {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || isTestFile(pass, fn) {
				continue
			}
			checkRetryDeciders(pass, fn.Body)
			// Function literals have their own graphs; check each.
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkRetryDeciders(pass, lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

// checkRetryDeciders runs the decider analysis over one function body:
// for every retry-action call, every raw error-nil branch that decides
// it is a finding.
func checkRetryDeciders(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	var actions []*ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // nested literals are checked on their own
		}
		if call, ok := n.(*ast.CallExpr); ok && isRetryAction(info, call) {
			actions = append(actions, call)
		}
		return true
	})
	if len(actions) == 0 {
		return
	}
	g := cfg.New(body)
	du := cfg.NewDefUse(info, body)
	isClassifier := func(call *ast.CallExpr) bool {
		fn := calleeFunc(info, call.Fun)
		return fn != nil && fn.Pkg() != nil &&
			errclassClassifiers[[2]string{fn.Pkg().Path(), fn.Name()}]
	}
	for _, action := range actions {
		blk := g.BlockOf(action)
		if blk == nil {
			continue
		}
		// A single classified decider anywhere in the chain means the
		// decision went through the classifier: the success short-circuit
		// `if err == nil { return rep, nil }` above a Retryable test is
		// fine. Only a raw error test with no classifier in the whole
		// decision set misroutes application errors.
		var rawCond ast.Expr
		classified := false
		for _, decider := range g.Deciders(blk) {
			cond := decider.Branch
			if du.FlowsFromCall(info, cond, isClassifier) {
				classified = true
				break
			}
			if rawCond == nil && isRawErrNilTest(info, cond) {
				rawCond = cond
			}
		}
		if classified || rawCond == nil {
			continue
		}
		pass.Reportf(action.Pos(),
			"retry action %s is decided by the raw error test %s; classify first — "+
				"paths.Retryable/ConnDead for transport faults, paths.IsRemote for application "+
				"errors that must surface unchanged (retrying those re-executes remote side effects)",
			calleeName(info, action), condString(rawCond))
	}
}

// isRetryAction reports whether the call's callee name contains a
// retry-decision word. Matching by name keeps the net wide enough to
// catch helpers (tryReconnect, growBackoff) without a curated table
// per package.
func isRetryAction(info *types.Info, call *ast.CallExpr) bool {
	name := calleeName(info, call)
	if name == "" {
		return false
	}
	lower := strings.ToLower(name)
	for _, w := range errclassActionWords {
		if strings.Contains(lower, w) {
			return true
		}
	}
	return false
}

// calleeName returns the bare name of the called function or method,
// "" for dynamic calls.
func calleeName(info *types.Info, call *ast.CallExpr) string {
	if fn := calleeFunc(info, call.Fun); fn != nil {
		return fn.Name()
	}
	// A func-valued variable (m.redial stored in a field) still commits
	// the action; use the syntactic name.
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// isRawErrNilTest reports whether cond contains an ==/!= comparison of
// an error-typed operand against nil. Compound conditions count: in
// `err != nil && attempts < max` the raw test is still the error
// classification.
func isRawErrNilTest(info *types.Info, cond ast.Expr) bool {
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if found {
			return false
		}
		bin, ok := n.(*ast.BinaryExpr)
		if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
			return true
		}
		x, y := info.Types[bin.X], info.Types[bin.Y]
		operand := x
		if x.IsNil() {
			operand = y
		} else if !y.IsNil() {
			return true // not a nil comparison
		}
		if operand.Type != nil && types.Implements(operand.Type, errType) {
			found = true
			return false
		}
		return true
	})
	return found
}

// condString renders a condition expression compactly for diagnostics.
func condString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.BinaryExpr:
		return condString(e.X) + " " + e.Op.String() + " " + condString(e.Y)
	case *ast.UnaryExpr:
		return e.Op.String() + condString(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return condString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return "(" + condString(e.X) + ")"
	case *ast.CallExpr:
		return condString(e.Fun) + "(...)"
	case *ast.BasicLit:
		return e.Value
	}
	return "..."
}
