// Package mapiterdet flags ranges over Go maps in determinism-critical
// packages. Go randomises map iteration order per run, so any map range
// whose body emits into an ordered structure makes plans, traces,
// fingerprints or rankings differ run to run — the exact bug class of the
// planner's liftCommonOrConjuncts, which emitted lifted OR-common
// predicates in map order and made Q19's plan (and the EXPLAIN golden)
// flap until PR 6 fixed it by emitting in first-arm syntactic order.
//
// Two idioms are recognised as order-insensitive and allowed without
// annotation:
//
//   - set/copy building: a body consisting solely of an assignment through
//     a map index (dst[k] = v) cannot observe iteration order;
//   - collect-then-sort: a body consisting solely of s = append(s, x) is
//     allowed when the same function later passes s to a sort call —
//     the order produced by the range never escapes.
//
// Everything else needs either a refactor to sorted iteration or an inline
// //lint:ordered <reason> justification.
package mapiterdet

import (
	"go/ast"
	"go/types"

	"sqalpel/internal/lint/analysis"
	"sqalpel/internal/lint/lintutil"
)

// Markers lists the determinism-critical packages: the planner (plans feed
// the plan cache and the EXPLAIN goldens), the trace plane (span documents
// are differentially compared bit for bit), the fuzzer (fingerprints must
// be stable across runs), the discriminative ranking (findings must not
// depend on iteration order), and the grammar generator and query pool (a
// seed must realise the same sentences and grow the same pool every time —
// Generator.realize once shuffled its literal classes in map order), the
// server (what it hands the repository becomes WAL bytes and pages —
// poolRecords once emitted a query's terms in map order), and the repository
// (its shards keep projects and tasks in maps and write them to snapshots —
// two checkpoints of one state once differed byte for byte).
var Markers = []string{
	"internal/plan",
	"internal/trace",
	"internal/fuzzdiff",
	"internal/discriminative",
	"internal/grammar",
	"internal/pool",
	"internal/server",
	"internal/repository",
}

// Token is the suppression token: //lint:ordered <reason>.
const Token = "ordered"

var Analyzer = &analysis.Analyzer{
	Name: "mapiterdet",
	Doc: "flag map iteration in determinism-critical packages (plan, trace, fuzzdiff, discriminative, grammar, pool, server, repository) " +
		"unless the body is an order-insensitive set build, a collect-then-sort, or carries //lint:ordered <reason>",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if !lintutil.PathMatchesAny(pass.Pkg.Path(), Markers...) {
		return nil, nil
	}
	sup := lintutil.NewSuppressions(pass.Fset, pass.Files)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, sup, fd.Body)
		}
	}
	return nil, nil
}

// checkFunc scans one function body (function literals form their own
// scope: a sort in the enclosing function cannot bless a range inside a
// closure that escapes).
func checkFunc(pass *analysis.Pass, sup *lintutil.Suppressions, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			checkFunc(pass, sup, fl.Body)
			return false
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok || tv.Type == nil {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if setBuildBody(pass, rng.Body) {
			return true
		}
		if target, ok := collectBody(rng); ok && sortedAfter(pass, body, rng, target) {
			return true
		}
		if sup.Suppressed(pass.Fset, rng.Pos(), Token) {
			return true
		}
		pass.Reportf(rng.Pos(),
			"iteration over map %s in determinism-critical package: map order is random per run; "+
				"iterate sorted keys, sort the collected result, or annotate //lint:%s <reason>",
			lintutil.ExprString(rng.X), Token)
		return true
	})
}

// setBuildBody reports whether the body is exactly one assignment through a
// map index expression — an order-insensitive set/copy build.
func setBuildBody(pass *analysis.Pass, body *ast.BlockStmt) bool {
	if len(body.List) != 1 {
		return false
	}
	as, ok := body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 {
		return false
	}
	idx, ok := as.Lhs[0].(*ast.IndexExpr)
	if !ok {
		return false
	}
	tv, ok := pass.TypesInfo.Types[idx.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// collectBody reports whether the body is exactly s = append(s, ...) and
// returns the textual form of s.
func collectBody(rng *ast.RangeStmt) (string, bool) {
	if len(rng.Body.List) != 1 {
		return "", false
	}
	as, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return "", false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return "", false
	}
	if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
		return "", false
	}
	if len(call.Args) == 0 {
		return "", false
	}
	target := lintutil.ExprString(as.Lhs[0])
	if target != lintutil.ExprString(call.Args[0]) {
		return "", false
	}
	return target, true
}

// sortNames are the sort entry points that bless a collect-then-sort.
var sortNames = map[string][]string{
	"sort":   {"Strings", "Ints", "Float64s", "Slice", "SliceStable", "Sort", "Stable"},
	"slices": {"Sort", "SortFunc", "SortStableFunc"},
}

// sortedAfter reports whether, lexically after the range statement in the
// same function body, the collected slice is passed to a sort call.
func sortedAfter(pass *analysis.Pass, body *ast.BlockStmt, rng *ast.RangeStmt, target string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		for pkg, names := range sortNames {
			if lintutil.IsPkgCall(pass.TypesInfo, call, pkg, names...) &&
				len(call.Args) > 0 && lintutil.ExprString(call.Args[0]) == target {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
