// Package lintutil holds the helpers shared by sqalpel's analyzers: the
// //lint: suppression-comment scanner, package-path classification, and
// type/callee matching on go/types information.
package lintutil

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PathMatches reports whether a package import path denotes the package
// marker (e.g. "internal/plan"): the path equals the marker, ends with it,
// or contains it as a full path segment sequence. Both the real module
// paths ("sqalpel/internal/plan") and analyzer fixtures loaded by their
// testdata-relative paths ("internal/plan") match.
func PathMatches(pkgPath, marker string) bool {
	return pkgPath == marker ||
		strings.HasSuffix(pkgPath, "/"+marker) ||
		strings.HasPrefix(pkgPath, marker+"/") ||
		strings.Contains(pkgPath, "/"+marker+"/")
}

// PathMatchesAny reports whether the path matches any of the markers.
func PathMatchesAny(pkgPath string, markers ...string) bool {
	for _, m := range markers {
		if PathMatches(pkgPath, m) {
			return true
		}
	}
	return false
}

// Suppressions indexes the //lint:<token> <reason> comments of a package.
// A suppression covers findings on the comment's own line (trailing
// comment) and on the line directly below it (standalone comment above the
// offending statement). The reason is mandatory: a bare //lint:token does
// not suppress, so every deliberate exception is forced to document itself.
type Suppressions struct {
	// tokens maps file name -> line -> suppression tokens active there.
	tokens map[string]map[int]map[string]bool
}

// NewSuppressions scans the files' comments for //lint: annotations.
func NewSuppressions(fset *token.FileSet, files []*ast.File) *Suppressions {
	s := &Suppressions{tokens: map[string]map[int]map[string]bool{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimPrefix(text, "/*")
				text = strings.TrimSpace(strings.TrimSuffix(text, "*/"))
				if !strings.HasPrefix(text, "lint:") {
					continue
				}
				rest := strings.TrimPrefix(text, "lint:")
				tok, reason, _ := strings.Cut(rest, " ")
				if tok == "" || strings.TrimSpace(reason) == "" {
					continue // undocumented suppressions are inert
				}
				pos := fset.Position(c.Pos())
				byLine := s.tokens[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					s.tokens[pos.Filename] = byLine
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					if byLine[line] == nil {
						byLine[line] = map[string]bool{}
					}
					byLine[line][tok] = true
				}
			}
		}
	}
	return s
}

// Suppressed reports whether a finding at pos is covered by a //lint:token
// annotation.
func (s *Suppressions) Suppressed(fset *token.FileSet, pos token.Pos, token string) bool {
	p := fset.Position(pos)
	return s.tokens[p.Filename][p.Line][token]
}

// Deref strips pointer indirections from a type.
func Deref(t types.Type) types.Type {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			return t
		}
		t = p.Elem()
	}
}

// NamedIn reports whether t (possibly behind pointers or an alias) is the
// named type with the given name declared in a package matching the marker
// path.
func NamedIn(t types.Type, marker, name string) bool {
	n, ok := types.Unalias(Deref(t)).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj == nil || obj.Name() != name {
		return false
	}
	pkg := obj.Pkg()
	return pkg != nil && PathMatches(pkg.Path(), marker)
}

// IsMutex reports whether t (possibly behind pointers) is sync.Mutex or
// sync.RWMutex.
func IsMutex(t types.Type) bool {
	n, ok := Deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// CalleeFunc resolves the called function or method object of a call
// expression, or nil (calls through function values, built-ins, or type
// conversions).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsPkgCall reports whether the call invokes one of the named package-level
// functions of a package matching the marker path ("" matches the standard
// library path exactly, e.g. "encoding/json").
func IsPkgCall(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) bool {
	fn := CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return false
	}
	if fn.Pkg().Path() != pkgPath && !PathMatches(fn.Pkg().Path(), pkgPath) {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// IsMethodCall reports whether the call invokes one of the named methods on
// a receiver whose type is the named type from a package matching the
// marker path.
func IsMethodCall(info *types.Info, call *ast.CallExpr, marker, typeName string, names ...string) bool {
	fn := CalleeFunc(info, call)
	if fn == nil {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	if !NamedIn(sig.Recv().Type(), marker, typeName) {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// ExprString renders a (small) expression for diagnostics: identifiers and
// selector chains come out as written, everything else as a placeholder.
func ExprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return ExprString(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return ExprString(e.Fun) + "(...)"
	case *ast.IndexExpr:
		return ExprString(e.X) + "[...]"
	case *ast.ParenExpr:
		return ExprString(e.X)
	case *ast.StarExpr:
		return "*" + ExprString(e.X)
	case *ast.UnaryExpr:
		return e.Op.String() + ExprString(e.X)
	default:
		return "expr"
	}
}
