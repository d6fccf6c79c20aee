package lint

import (
	"go/ast"
	"go/types"
)

// LockedSend flags blocking communication while holding a mutex: a
// channel send (outside a select with a default case) issued between
// mu.Lock() and mu.Unlock(). The consumer of that channel often needs
// the same lock to make progress — the classic tuple-space deadlock
// (PastSet reads never block, so sends are the whole class). The scan is
// lexical per function: Lock()/RLock() acquire, Unlock()/RUnlock()
// release, a deferred Unlock holds to function end, and goroutine
// bodies launched under the lock are scanned lock-free (they run
// later).
var LockedSend = &Analyzer{
	Name: "lockedsend",
	Doc: "flag blocking channel sends while holding a mutex; " +
		"the receiver may need the same lock, deadlocking the monitor",
	Run: runLockedSend,
}

func runLockedSend(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			scanLocked(pass, fn.Body.List, map[string]bool{})
		}
	}
	return nil
}

// lockCall classifies a statement as a mutex acquire/release on some
// expression, returning the printed receiver ("sm.mu") and +1/-1.
func lockCall(stmt ast.Stmt) (string, int) {
	expr, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return "", 0
	}
	return lockCallExpr(expr.X)
}

func lockCallExpr(e ast.Expr) (string, int) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return "", 0
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		return types.ExprString(sel.X), +1
	case "Unlock", "RUnlock":
		return types.ExprString(sel.X), -1
	}
	return "", 0
}

// anyHeld returns one held mutex's name, or "".
func anyHeld(held map[string]bool) string {
	for name, h := range held {
		if h {
			return name
		}
	}
	return ""
}

// scanLocked walks stmts in order tracking which mutexes are held, and
// reports blocking operations performed under a lock. Branch bodies are
// scanned with a copy of the held set (acquisitions inside a branch do
// not leak out — a lexical approximation that matches this codebase's
// lock discipline).
func scanLocked(pass *Pass, stmts []ast.Stmt, held map[string]bool) {
	for _, stmt := range stmts {
		if name, op := lockCall(stmt); op != 0 {
			held[name] = op > 0
			continue
		}
		switch s := stmt.(type) {
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the lock held to function end for
			// this scan; defer mu.Lock() would be nonsense — ignore.
			scanLockedExprs(pass, s.Call, held)
		case *ast.GoStmt:
			// The goroutine body runs without this frame's locks.
			if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
				scanLocked(pass, lit.Body.List, map[string]bool{})
			}
			for _, arg := range s.Call.Args {
				scanLockedExprs(pass, arg, held)
			}
		case *ast.SendStmt:
			if m := anyHeld(held); m != "" {
				pass.Reportf(s.Arrow,
					"channel send %s <- ... while holding %s; the receiver may need the lock — send after unlocking or use a select with default",
					types.ExprString(s.Chan), m)
			}
			scanLockedExprs(pass, s.Value, held)
		case *ast.SelectStmt:
			scanSelect(pass, s, held)
		case *ast.BlockStmt:
			scanLocked(pass, s.List, copyHeld(held))
		case *ast.IfStmt:
			if s.Init != nil {
				scanLocked(pass, []ast.Stmt{s.Init}, held)
			}
			scanLockedExprs(pass, s.Cond, held)
			scanLocked(pass, s.Body.List, copyHeld(held))
			if s.Else != nil {
				scanLocked(pass, []ast.Stmt{s.Else}, copyHeld(held))
			}
		case *ast.ForStmt:
			scanLocked(pass, s.Body.List, copyHeld(held))
		case *ast.RangeStmt:
			scanLockedExprs(pass, s.X, held)
			scanLocked(pass, s.Body.List, copyHeld(held))
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					scanLocked(pass, cc.Body, copyHeld(held))
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					scanLocked(pass, cc.Body, copyHeld(held))
				}
			}
		case *ast.LabeledStmt:
			scanLocked(pass, []ast.Stmt{s.Stmt}, held)
		default:
			scanLockedExprs(pass, stmt, held)
		}
	}
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// scanSelect handles select statements: with a default case the comm
// operations are non-blocking and allowed under a lock; without one
// they block and are flagged. Case bodies are always scanned.
func scanSelect(pass *Pass, s *ast.SelectStmt, held map[string]bool) {
	hasDefault := false
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if send, ok := cc.Comm.(*ast.SendStmt); ok && !hasDefault {
			if m := anyHeld(held); m != "" {
				pass.Reportf(send.Arrow,
					"blocking select send %s <- ... while holding %s; add a default case or send after unlocking",
					types.ExprString(send.Chan), m)
			}
		}
		scanLocked(pass, cc.Body, copyHeld(held))
	}
}

// scanLockedExprs walks an arbitrary node for sends and nested function
// literals. Literals other than goroutine bodies run inline, so they
// inherit the held set.
func scanLockedExprs(pass *Pass, n ast.Node, held map[string]bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		switch e := node.(type) {
		case *ast.FuncLit:
			scanLocked(pass, e.Body.List, copyHeld(held))
			return false
		case *ast.SendStmt:
			if m := anyHeld(held); m != "" {
				pass.Reportf(e.Arrow,
					"channel send %s <- ... while holding %s; the receiver may need the lock — send after unlocking or use a select with default",
					types.ExprString(e.Chan), m)
			}
		}
		return true
	})
}
