package analysis

import (
	"go/ast"
	"go/types"
)

// HintHygiene enforces the SB hint's contract at both ends of the API.
//
// Algorithm side: every core.Task composite literal must declare a Space
// bound, and the bound must be derived from the task's input size — a
// non-constant expression. A constant (or missing, hence zero) bound is
// how a task lies its way past the admission control that the paper's
// space-bounded scheduler depends on.
//
// Engine side (package internal/core): every join taken from the free list
// with newJoin must be handed back on every control path, via waitJoin (or
// putJoin directly) before the function returns. A leaked join is a strand
// that can never be unparked — the deadlock backstop catches it at run
// time, this catches it at vet time.
var HintHygiene = &Analyzer{
	Name: "hinthygiene",
	Doc:  "every SpawnSB task carries a derived space bound; every engine join is waited on all control paths",
	Run:  runHintHygiene,
}

func runHintHygiene(pass *Pass) {
	if !modulePackage(pass.Path) {
		return
	}
	eachSourceFile(pass, func(f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[lit]
			if !ok || !namedFrom(tv.Type, "internal/core", "Task") {
				return true
			}
			checkTaskLit(pass, lit)
			return true
		})
	})
	if enginePackage(pass.Path) {
		eachSourceFile(pass, func(f *ast.File) {
			checkJoinPaths(pass, f)
		})
	}
}

// checkTaskLit validates the Space field of one core.Task literal.
func checkTaskLit(pass *Pass, lit *ast.CompositeLit) {
	var space ast.Expr
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Space" {
				space = kv.Value
			}
			continue
		}
		// Positional form: Space is the first field.
		if i == 0 {
			space = elt
		}
	}
	if space == nil {
		pass.Reportf(lit.Pos(),
			"Task literal without a Space bound: the SB scheduler admits tasks by their declared space, an absent bound is an implicit 0")
		return
	}
	if tv, ok := pass.TypesInfo.Types[space]; ok && tv.Value != nil {
		pass.Reportf(space.Pos(),
			"Task space bound is the constant %s: the paper's s(τ) must be derived from the task's input size, not hard-coded", tv.Value)
	}
}

// ---- engine join pairing ----

// checkJoinPaths verifies, per function body (FuncDecl and FuncLit bodies
// are separate scopes), that a join obtained from newJoin is released by
// waitJoin/putJoin on every control path.
func checkJoinPaths(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.FuncDecl:
			body = n.Body
		case *ast.FuncLit:
			body = n.Body
		default:
			return true
		}
		if body != nil {
			checkJoinBody(pass, body)
		}
		return true
	})
}

// joinTracker walks one function body tracking a single join variable.
type joinTracker struct {
	pass    *Pass
	obj     types.Object // the join variable, nil until newJoin is seen
	newPos  ast.Node     // the newJoin assignment, for fall-off reports
	created bool
}

func checkJoinBody(pass *Pass, body *ast.BlockStmt) {
	t := &joinTracker{pass: pass}
	joined, terminated := t.walkStmts(body.List, false)
	if t.created && !terminated && !joined {
		pass.Reportf(t.newPos.Pos(),
			"join from newJoin is not released by waitJoin/putJoin on the fall-through path")
	}
}

// walkStmts walks a statement list. joined says whether the tracked join
// has been released on the path entering the list; the returns are the
// release state on the fall-through path and whether every path through
// the list terminates (return/panic).
func (t *joinTracker) walkStmts(list []ast.Stmt, joined bool) (joinedOut, terminated bool) {
	for _, s := range list {
		joined, terminated = t.walkStmt(s, joined)
		if terminated {
			return joined, true
		}
	}
	return joined, false
}

func (t *joinTracker) walkStmt(s ast.Stmt, joined bool) (joinedOut, terminated bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		if !t.created && t.captureNewJoin(s) {
			return false, false // tracking starts un-joined
		}
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if t.isRelease(call) {
				return true, false
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return joined, true
			}
		}
	case *ast.DeferStmt:
		if t.isRelease(s.Call) {
			// A deferred release covers every later path.
			return true, false
		}
	case *ast.ReturnStmt:
		if t.created && !joined {
			t.pass.Reportf(s.Pos(),
				"return without releasing the join from newJoin: every spawn must be matched by a waitJoin on all control paths")
		}
		return joined, true
	case *ast.BlockStmt:
		return t.walkStmts(s.List, joined)
	case *ast.LabeledStmt:
		return t.walkStmt(s.Stmt, joined)
	case *ast.IfStmt:
		jb, tb := t.walkStmts(s.Body.List, joined)
		je, te := joined, false
		if s.Else != nil {
			je, te = t.walkStmt(s.Else, joined)
		}
		switch {
		case tb && te:
			return joined, true
		case tb:
			return je, false
		case te:
			return jb, false
		default:
			return jb && je, false
		}
	case *ast.ForStmt:
		// The body may run zero times: keep the entry state for the
		// fall-through path, but still flag returns inside the body.
		t.walkStmts(s.Body.List, joined)
		return joined, false
	case *ast.RangeStmt:
		t.walkStmts(s.Body.List, joined)
		return joined, false
	case *ast.SwitchStmt:
		return t.walkCases(s.Body, joined)
	case *ast.TypeSwitchStmt:
		return t.walkCases(s.Body, joined)
	case *ast.SelectStmt:
		return t.walkCases(s.Body, joined)
	}
	return joined, false
}

// walkCases handles switch/select clause bodies conservatively: clauses are
// checked for unreleased returns, and the fall-through keeps the entry
// state (a missing default always falls through unchanged).
func (t *joinTracker) walkCases(body *ast.BlockStmt, joined bool) (joinedOut, terminated bool) {
	for _, clause := range body.List {
		switch c := clause.(type) {
		case *ast.CaseClause:
			t.walkStmts(c.Body, joined)
		case *ast.CommClause:
			t.walkStmts(c.Body, joined)
		}
	}
	return joined, false
}

// captureNewJoin recognizes `jn := e.newJoin(...)` and begins tracking jn.
func (t *joinTracker) captureNewJoin(s *ast.AssignStmt) bool {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := funcObj(t.pass.TypesInfo, call)
	if fn == nil || fn.Name() != "newJoin" {
		return false
	}
	id, ok := s.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	obj := t.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = t.pass.TypesInfo.Uses[id]
	}
	if obj == nil {
		return false
	}
	t.obj, t.newPos, t.created = obj, s, true
	return true
}

// isRelease recognizes waitJoin(jn) / putJoin(jn) for the tracked jn.
func (t *joinTracker) isRelease(call *ast.CallExpr) bool {
	if !t.created {
		return false
	}
	fn := funcObj(t.pass.TypesInfo, call)
	if fn == nil || (fn.Name() != "waitJoin" && fn.Name() != "putJoin") {
		return false
	}
	for _, arg := range call.Args {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok && t.pass.TypesInfo.Uses[id] == t.obj {
			return true
		}
	}
	return false
}
