// Package lockmarshal flags JSON marshalling and file I/O performed while
// a sync.Mutex / sync.RWMutex *write* lock is held in internal/repository.
// PR 5 fixed a data race of exactly this family: Store.Save snapshotted
// live pointers under the lock but marshalled them after releasing it, so
// concurrent mutators raced the encoder. The repository's rule since PR 7
// is that serialisation and disk writes under a write lock happen only at
// the one blessed seam — the WAL append path (logApply/metaLogApply, which
// log through walWriter.log: durability *requires* encode+append+fsync
// under the same lock as the in-memory apply, so log order equals apply
// order). The checkpoint path used to be a
// second one, marshalling the whole partition under its lock because the
// snapshot aliased live objects; it now captures an image no mutation can
// reach under the lock and encodes and writes it after the unlock, and only
// the final swap of the compacted log keeps an annotated critical section.
// Anywhere else, I/O under a write lock is either a latency bug (every
// reader of the shard stalls behind an fsync) or the PR 5 race reborn with
// the lock on the wrong side.
//
// The analyzer tracks Lock/Unlock calls in source order (defer Unlock
// keeps the lock to the end) and flags I/O performed while a write lock
// *acquired in the same function* is held. It matches both direct stdlib
// I/O (encoding/json Marshal family, os file operations) and calls to
// package-local functions that themselves perform direct I/O — one hop,
// so helpers like writeAtomic and swapLogLocked count as I/O at their call
// sites. Helpers that run entirely under a caller-held lock
// (the repository's "Locked" suffix / "mu held" doc convention) are
// checked at the call that enters the critical section, not line by line
// inside — one annotation at the seam's entry documents the whole
// discipline. Calls to logApply/metaLogApply are exempt: they are the WAL
// discipline itself (walack enforces their use), and durability requires
// their append+fsync to happen under the same lock as the in-memory
// apply.
//
// Suppress deliberate sites with //lint:iolocked <reason>.
package lockmarshal

import (
	"go/ast"

	"sqalpel/internal/lint/analysis"
	"sqalpel/internal/lint/lintutil"
)

// Marker restricts the analyzer to the repository package.
const Marker = "internal/repository"

// Token is the suppression token: //lint:iolocked <reason>.
const Token = "iolocked"

var Analyzer = &analysis.Analyzer{
	Name: "lockmarshal",
	Doc: "flag json.Marshal / file I/O / fsync while a write lock is held in internal/repository " +
		"outside the blessed WAL seam; suppress with //lint:iolocked <reason>",
	Run: run,
}

// ioFuncs are the direct package-level I/O entry points.
var ioFuncs = map[string][]string{
	"encoding/json": {"Marshal", "MarshalIndent"},
	"os": {"WriteFile", "ReadFile", "Rename", "Remove", "RemoveAll", "Create", "Open",
		"OpenFile", "Mkdir", "MkdirAll", "ReadDir", "Stat"},
	"io": {"Copy", "ReadAll"},
}

// ioMethods are the direct method-call I/O entry points, keyed by
// (package marker, type name).
var ioMethods = []struct {
	marker, typ string
	names       []string
}{
	{"os", "File", []string{"Write", "WriteString", "Sync", "Truncate", "ReadFrom", "Read"}},
	{"encoding/json", "Encoder", []string{"Encode"}},
	{"bufio", "Writer", []string{"Flush"}},
	// The WAL writer and sink are I/O by definition: log encodes, frames,
	// writes and fsyncs one record.
	{Marker, "walWriter", []string{"log"}},
	{Marker, "walSink", []string{"Write", "Sync", "Close"}},
}

// exemptCallees are the WAL discipline itself: every mutator calls them
// under the shard/meta lock by design, and walack independently enforces
// that they are called. Flagging each caller would bury real findings
// under boilerplate annotations.
var exemptCallees = map[string]bool{"logApply": true, "metaLogApply": true}

func run(pass *analysis.Pass) (any, error) {
	if !lintutil.PathMatches(pass.Pkg.Path(), Marker) {
		return nil, nil
	}
	sup := lintutil.NewSuppressions(pass.Fset, pass.Files)

	// First pass: package-local functions that perform direct I/O become
	// I/O callees themselves (one hop, no fixpoint — enough to catch
	// writeAtomic/swapLogLocked-style helpers without tainting
	// every mutator that calls logApply).
	localIO := map[string]bool{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			directIO := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && isDirectIO(pass, call) {
					directIO = true
				}
				return !directIO
			})
			if directIO {
				localIO[fd.Name.Name] = true
			}
		}
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBody(pass, sup, localIO, &lockState{}, fd.Body)
		}
	}
	return nil, nil
}

// lockState tracks the write locks held at the current source position.
type lockState struct {
	held []string // rendered receiver expressions, e.g. "sh.mu"
}

func (st *lockState) lock(recv string) { st.held = append(st.held, recv) }
func (st *lockState) unlock(recv string) {
	for i := len(st.held) - 1; i >= 0; i-- {
		if st.held[i] == recv {
			st.held = append(st.held[:i], st.held[i+1:]...)
			return
		}
	}
}

// checkBody walks statements in source order, updating lock state and
// flagging I/O calls made while any write lock is held.
func checkBody(pass *analysis.Pass, sup *lintutil.Suppressions, localIO map[string]bool, st *lockState, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A closure runs at an unknown time; analyse it with a copy of
			// the current lock state (conservative for immediately-invoked
			// and deferred closures, which dominate this package).
			inner := &lockState{held: append([]string(nil), st.held...)}
			checkBody(pass, sup, localIO, inner, n.Body)
			return false
		case *ast.DeferStmt:
			// defer mu.Unlock() releases at return — the lock stays held
			// for the rest of the function, so no state change. Any other
			// deferred call is walked normally.
			if recv, op := mutexOp(pass, n.Call); op == "Unlock" && recv != "" {
				return false
			}
			return true
		case *ast.CallExpr:
			if recv, op := mutexOp(pass, n); recv != "" {
				switch op {
				case "Lock":
					st.lock(recv)
				case "Unlock":
					st.unlock(recv)
				}
				return false
			}
			if len(st.held) > 0 && isIOCall(pass, localIO, n) {
				if !sup.Suppressed(pass.Fset, n.Pos(), Token) {
					pass.Reportf(n.Pos(),
						"%s while write lock %s is held: serialisation/I/O under a write lock stalls "+
							"every reader and risks the PR 5 marshal race; move it outside the critical "+
							"section or annotate //lint:%s <reason>",
						lintutil.ExprString(n.Fun), st.held[len(st.held)-1], Token)
				}
			}
		}
		return true
	})
}

// mutexOp matches calls of the form <expr>.Lock() / <expr>.Unlock() on a
// sync.Mutex or sync.RWMutex and returns the rendered receiver and the
// operation. RLock/RUnlock return "" — read locks admit concurrent
// readers, and marshalling under them is the PR 5 *fix*, not the bug.
func mutexOp(pass *analysis.Pass, call *ast.CallExpr) (recv, op string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	name := sel.Sel.Name
	if name != "Lock" && name != "Unlock" {
		return "", ""
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || tv.Type == nil || !lintutil.IsMutex(tv.Type) {
		return "", ""
	}
	return lintutil.ExprString(sel.X), name
}

// isDirectIO matches the stdlib I/O entry points and the WAL writer/sink
// methods.
func isDirectIO(pass *analysis.Pass, call *ast.CallExpr) bool {
	for pkg, names := range ioFuncs {
		if lintutil.IsPkgCall(pass.TypesInfo, call, pkg, names...) {
			return true
		}
	}
	for _, m := range ioMethods {
		if lintutil.IsMethodCall(pass.TypesInfo, call, m.marker, m.typ, m.names...) {
			return true
		}
	}
	// Interface method calls on a walSink value (IsMethodCall resolves the
	// interface method's receiver to the interface type itself).
	return false
}

// isIOCall additionally matches calls to package-local one-hop I/O
// helpers, minus the blessed WAL discipline callees.
func isIOCall(pass *analysis.Pass, localIO map[string]bool, call *ast.CallExpr) bool {
	if isDirectIO(pass, call) {
		return true
	}
	fn := lintutil.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || !lintutil.PathMatches(fn.Pkg().Path(), Marker) {
		return false
	}
	if exemptCallees[fn.Name()] {
		return false
	}
	return localIO[fn.Name()]
}
