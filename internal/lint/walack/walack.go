// Package walack enforces the repository's durability contract: a mutation
// method must not acknowledge success to its caller before the operation
// has been appended to the write-ahead log and fsynced. PR 7 replaced
// whole-file persistence with the sharded WAL precisely so that an
// acknowledged mutation survives a crash; a `return nil` (or `return
// result, nil`) on a path that skipped logApply/metaLogApply reintroduces
// the pre-PR 7 failure mode — the caller observes success, the process
// dies, and recovery replays a log that never heard of the operation.
//
// The analyzer examines every internal/repository function that calls one
// of the WAL append seams (logApply, metaLogApply, or walWriter.log
// directly) — such a function is by construction a mutation path — and
// walks its statements in source order tracking whether an append has
// happened yet. A return whose error result is the literal nil before any
// append is flagged. `return sh.logApply(...)` and friends count as the
// append itself. State set inside a conditional branch does not leak past
// it (conservative: the branch may not be taken), but an append in an if
// *init* statement — the idiomatic `if err := sh.logApply(op, p); err !=
// nil` — propagates, since the init always executes.
//
// Early-out success returns that deliberately skip the WAL (no-op
// mutations, empty leases, derived state) must say so inline:
// //lint:acked <reason>.
package walack

import (
	"go/ast"

	"sqalpel/internal/lint/analysis"
	"sqalpel/internal/lint/lintutil"
)

// Marker restricts the analyzer to the repository package.
const Marker = "internal/repository"

// Token is the suppression token: //lint:acked <reason>.
const Token = "acked"

// appendCallees are the WAL append seams. A call to any of them marks the
// path as durable.
var appendCallees = map[string]bool{"logApply": true, "metaLogApply": true, "log": true}

var Analyzer = &analysis.Analyzer{
	Name: "walack",
	Doc: "flag success returns in internal/repository mutation methods not preceded by a WAL " +
		"append (logApply/metaLogApply); suppress deliberate non-durable acks with //lint:acked <reason>",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if !lintutil.PathMatches(pass.Pkg.Path(), Marker) {
		return nil, nil
	}
	sup := lintutil.NewSuppressions(pass.Fset, pass.Files)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !callsAppendSeam(pass, fd.Body) {
				continue
			}
			if appendCallees[fd.Name.Name] {
				// The seams themselves (and walWriter.log) are the
				// discipline, not subject to it.
				continue
			}
			walkStmts(pass, sup, fd.Body.List, false)
		}
	}
	return nil, nil
}

// callsAppendSeam reports whether the body contains a call to any WAL
// append seam — the signal that this function is a mutation path.
func callsAppendSeam(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isAppendCall(pass, call) {
			found = true
		}
		return !found
	})
	return found
}

// isAppendCall matches calls to logApply / metaLogApply / walWriter.log
// defined in the repository package.
func isAppendCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := lintutil.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || !lintutil.PathMatches(fn.Pkg().Path(), Marker) {
		return false
	}
	return appendCallees[fn.Name()]
}

// walkStmts walks a statement list in source order. appended means a WAL
// append dominates the current position. The per-list state is returned so
// sequential statements see appends made by earlier ones, while branch
// bodies cannot leak state to their join point.
func walkStmts(pass *analysis.Pass, sup *lintutil.Suppressions, stmts []ast.Stmt, appended bool) bool {
	for _, s := range stmts {
		appended = walkStmt(pass, sup, s, appended)
	}
	return appended
}

// walkStmt processes one statement and returns the appended state for the
// statements after it.
func walkStmt(pass *analysis.Pass, sup *lintutil.Suppressions, s ast.Stmt, appended bool) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		if !appended && acksSuccess(pass, s) && !sup.Suppressed(pass.Fset, s.Pos(), Token) {
			pass.Reportf(s.Pos(),
				"success return before WAL append: the caller observes an acknowledged mutation "+
					"that a crash would erase; append via logApply/metaLogApply first, or annotate "+
					"//lint:%s <reason> if this path deliberately mutates nothing durable", Token)
		}
		return appended
	case *ast.IfStmt:
		if s.Init != nil {
			appended = walkStmt(pass, sup, s.Init, appended)
		}
		if containsAppend(pass, s.Cond) {
			appended = true
		}
		walkStmts(pass, sup, s.Body.List, appended)
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			walkStmts(pass, sup, e.List, appended)
		case *ast.IfStmt:
			walkStmt(pass, sup, e, appended)
		}
		return appended
	case *ast.BlockStmt:
		// A bare block shares the enclosing control flow; its appends count.
		return walkStmts(pass, sup, s.List, appended)
	case *ast.ForStmt:
		walkStmts(pass, sup, s.Body.List, appended)
		return appended
	case *ast.RangeStmt:
		walkStmts(pass, sup, s.Body.List, appended)
		return appended
	case *ast.SwitchStmt:
		if s.Init != nil {
			appended = walkStmt(pass, sup, s.Init, appended)
		}
		walkCaseBodies(pass, sup, s.Body, appended)
		return appended
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			appended = walkStmt(pass, sup, s.Init, appended)
		}
		walkCaseBodies(pass, sup, s.Body, appended)
		return appended
	case *ast.SelectStmt:
		walkCaseBodies(pass, sup, s.Body, appended)
		return appended
	case *ast.LabeledStmt:
		return walkStmt(pass, sup, s.Stmt, appended)
	default:
		if containsAppend(pass, s) {
			return true
		}
		return appended
	}
}

// walkCaseBodies walks each case/comm clause body with a copy of the
// incoming state (no clause can leak appends to the join point).
func walkCaseBodies(pass *analysis.Pass, sup *lintutil.Suppressions, body *ast.BlockStmt, appended bool) {
	for _, c := range body.List {
		switch cc := c.(type) {
		case *ast.CaseClause:
			walkStmts(pass, sup, cc.Body, appended)
		case *ast.CommClause:
			walkStmts(pass, sup, cc.Body, appended)
		}
	}
}

// containsAppend reports whether the node contains a WAL append call
// (function literals excluded — a closure may never run).
func containsAppend(pass *analysis.Pass, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := c.(*ast.CallExpr); ok && isAppendCall(pass, call) {
			found = true
		}
		return !found
	})
	return found
}

// acksSuccess reports whether the return acknowledges success: its final
// (error-position) result is the literal nil. `return sh.logApply(...)`
// does not match — the append is the result. Naked returns are skipped
// (named results would need value tracking).
func acksSuccess(pass *analysis.Pass, ret *ast.ReturnStmt) bool {
	if len(ret.Results) == 0 {
		return false
	}
	last := ast.Unparen(ret.Results[len(ret.Results)-1])
	id, ok := last.(*ast.Ident)
	return ok && id.Name == "nil"
}
