// Package tracenilalloc protects the proven zero-allocation disabled path
// of the engine.ExecOptions.Tracer seam. The contract — pinned by
// TestDisabledTracerZeroAlloc and the seam-disabled benchmark — is that an
// execution with no tracer installed performs no tracing work at all: the
// hot paths reduce to one nil pointer comparison. Tracer.Span calls and the
// operator-id table (trace.NewIDs, one map and one string per operator)
// must therefore only be reachable inside a block dominated by a nil-check,
// or the disabled path silently regrows work that no test of the *traced*
// path would ever catch.
//
// A guard is a nil-check on a *trace.Tracer or on a *trace.Ops — a core's
// operator ids, which the executors hold only while tracing. The analyzer
// recognises two guard forms in internal/engine and internal/vexec:
//
//	if o := ex.ids[sp.Stmt]; o != nil { ... }  // direct nil-check
//	if ex.tracer == nil { return }             // early-out; the rest is guarded
//
// (&&-conjoined guards and else-branches of inverted guards count too.)
// Calls to trace.NewIDs and to Tracer.Span outside any such region are
// flagged. Nil-safe span *consumers* (Span.Start, Timer.Done, Span.Merge)
// are deliberately exempt — they are designed to run unguarded.
//
// Suppress deliberate sites with //lint:tracealloc <reason>.
package tracenilalloc

import (
	"go/ast"
	"go/token"

	"sqalpel/internal/lint/analysis"
	"sqalpel/internal/lint/lintutil"
)

// Markers lists the engine packages carrying the trace seam.
var Markers = []string{
	"internal/engine",
	"internal/vexec",
}

// TraceMarker locates the trace package.
const TraceMarker = "internal/trace"

// Token is the suppression token: //lint:tracealloc <reason>.
const Token = "tracealloc"

var Analyzer = &analysis.Analyzer{
	Name: "tracenilalloc",
	Doc: "flag trace.NewIDs and Tracer.Span calls not dominated by a tracer or operator-id nil-check " +
		"in executor packages (protects the 0-alloc disabled trace path); suppress with //lint:tracealloc <reason>",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if !lintutil.PathMatchesAny(pass.Pkg.Path(), Markers...) {
		return nil, nil
	}
	sup := lintutil.NewSuppressions(pass.Fset, pass.Files)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				walkStmts(pass, sup, fd.Body.List, false)
			}
		}
	}
	return nil, nil
}

// walkStmts processes a statement list in source order. guarded means a
// tracer nil-check dominates the current position; an inverted guard whose
// body terminates upgrades the rest of the list.
func walkStmts(pass *analysis.Pass, sup *lintutil.Suppressions, stmts []ast.Stmt, guarded bool) {
	for _, s := range stmts {
		guarded = walkStmt(pass, sup, s, guarded)
	}
}

// walkStmt processes one statement and returns the guard state for the
// statements after it.
func walkStmt(pass *analysis.Pass, sup *lintutil.Suppressions, s ast.Stmt, guarded bool) bool {
	switch s := s.(type) {
	case *ast.IfStmt:
		if s.Init != nil {
			checkNode(pass, sup, s.Init, guarded)
		}
		checkNode(pass, sup, s.Cond, guarded)
		pos := posGuard(pass, s.Cond)
		neg := negGuard(pass, s.Cond)
		walkStmts(pass, sup, s.Body.List, guarded || pos)
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			walkStmts(pass, sup, e.List, guarded || neg)
		case *ast.IfStmt:
			walkStmt(pass, sup, e, guarded || neg)
		}
		if neg && terminates(s.Body) {
			return true
		}
		return guarded
	case *ast.BlockStmt:
		walkStmts(pass, sup, s.List, guarded)
		return guarded
	case *ast.ForStmt:
		if s.Init != nil {
			checkNode(pass, sup, s.Init, guarded)
		}
		if s.Cond != nil {
			checkNode(pass, sup, s.Cond, guarded)
		}
		if s.Post != nil {
			checkNode(pass, sup, s.Post, guarded)
		}
		walkStmts(pass, sup, s.Body.List, guarded)
		return guarded
	case *ast.RangeStmt:
		checkNode(pass, sup, s.X, guarded)
		walkStmts(pass, sup, s.Body.List, guarded)
		return guarded
	case *ast.SwitchStmt:
		if s.Init != nil {
			checkNode(pass, sup, s.Init, guarded)
		}
		if s.Tag != nil {
			checkNode(pass, sup, s.Tag, guarded)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					checkNode(pass, sup, e, guarded)
				}
				walkStmts(pass, sup, cc.Body, guarded)
			}
		}
		return guarded
	case *ast.TypeSwitchStmt:
		walkTypeSwitch(pass, sup, s, guarded)
		return guarded
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					checkNode(pass, sup, cc.Comm, guarded)
				}
				walkStmts(pass, sup, cc.Body, guarded)
			}
		}
		return guarded
	default:
		checkNode(pass, sup, s, guarded)
		return guarded
	}
}

func walkTypeSwitch(pass *analysis.Pass, sup *lintutil.Suppressions, s *ast.TypeSwitchStmt, guarded bool) {
	if s.Init != nil {
		checkNode(pass, sup, s.Init, guarded)
	}
	checkNode(pass, sup, s.Assign, guarded)
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			walkStmts(pass, sup, cc.Body, guarded)
		}
	}
}

// checkNode flags matched trace calls under the given guard state;
// function literals inherit the state of their creation site (closures on
// the trace paths are built inside guards).
func checkNode(pass *analysis.Pass, sup *lintutil.Suppressions, n ast.Node, guarded bool) {
	if guarded {
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		if matchedTraceCall(pass, call) && !sup.Suppressed(pass.Fset, call.Pos(), Token) {
			pass.Reportf(call.Pos(),
				"%s outside a tracer nil-check: the disabled-trace path must stay allocation-free "+
					"(guard with `if <tracer> != nil` / `if <ops> != nil`, or annotate //lint:%s <reason>)",
				lintutil.ExprString(call.Fun), Token)
		}
		return true
	})
}

// matchedTraceCall matches Tracer.Span and the operator-id table
// constructor of the trace package.
func matchedTraceCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	if lintutil.IsMethodCall(pass.TypesInfo, call, TraceMarker, "Tracer", "Span") {
		return true
	}
	fn := lintutil.CalleeFunc(pass.TypesInfo, call)
	return fn != nil && fn.Pkg() != nil && lintutil.PathMatches(fn.Pkg().Path(), TraceMarker) && fn.Name() == "NewIDs"
}

// posGuard reports whether the condition establishes "tracing is on": a
// `x != nil` with x a tracer or a core's operator ids, or an &&-conjunction
// containing one.
func posGuard(pass *analysis.Pass, cond ast.Expr) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		if e.Op == token.LAND {
			return posGuard(pass, e.X) || posGuard(pass, e.Y)
		}
		if e.Op == token.NEQ {
			return nilCheckOnTracer(pass, e)
		}
	}
	return false
}

// negGuard reports whether the condition establishes "tracing is off" (so
// the else branch / post-early-return code is guarded): `x == nil`,
// !posGuard, or an ||-disjunction containing either.
func negGuard(pass *analysis.Pass, cond ast.Expr) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		if e.Op == token.LOR {
			return negGuard(pass, e.X) || negGuard(pass, e.Y)
		}
		if e.Op == token.EQL {
			return nilCheckOnTracer(pass, e)
		}
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			return posGuard(pass, e.X)
		}
	}
	return false
}

// nilCheckOnTracer reports whether one side is nil and the other is a
// *trace.Tracer- or *trace.Ops-typed expression.
func nilCheckOnTracer(pass *analysis.Pass, e *ast.BinaryExpr) bool {
	isNil := func(x ast.Expr) bool {
		id, ok := ast.Unparen(x).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	isTracer := func(x ast.Expr) bool {
		tv, ok := pass.TypesInfo.Types[ast.Unparen(x)]
		return ok && tv.Type != nil &&
			(lintutil.NamedIn(tv.Type, TraceMarker, "Tracer") || lintutil.NamedIn(tv.Type, TraceMarker, "Ops"))
	}
	return (isNil(e.X) && isTracer(e.Y)) || (isNil(e.Y) && isTracer(e.X))
}

// terminates reports whether the block always leaves the enclosing
// statement list (return / branch / panic as its last statement).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
