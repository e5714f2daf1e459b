package testonlyapi

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
	"strings"
	"testing"

	"sqalpel/internal/lint/lintutil"
	"sqalpel/internal/lint/loader"
)

// interfaceMethods are the methods the standard library finds on a value
// through an interface the module need not name: the JSON and text codecs,
// fmt, errors and net/http's Handler. A method of one of these names is out
// of scope, like a method that implements an interface the module's
// expressions have.
var interfaceMethods = map[string]bool{
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"ServeHTTP": true,
}

// unused returns, as "pkg.Name" or "pkg.Type.Name" with its position, every
// exported function and method of the packages that no file of them
// references outside the declaration itself and that carries no
// //lint:api reason. The packages are the modules' non-test files, so a
// reference from a test does not count. Methods that implement an
// interface — of the module or in interfaceMethods — and the functions of
// package main are out of scope.
func unused(pkgs []*loader.Package) []string {
	// Every interface type the module's expressions have: its own, the
	// standard library's it uses (http.ResponseWriter, io.Writer) and the
	// anonymous ones of its type assertions.
	var ifaces []*types.Interface
	seen := map[*types.Interface]bool{}
	for _, p := range pkgs {
		for _, tv := range p.Info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
				seen[it] = true
				ifaces = append(ifaces, it)
			}
		}
	}
	implements := func(fn *types.Func) bool {
		if interfaceMethods[fn.Name()] {
			return true
		}
		recv := fn.Type().(*types.Signature).Recv().Type()
		for _, it := range ifaces {
			if types.Implements(recv, it) || types.Implements(types.NewPointer(lintutil.Deref(recv)), it) {
				for i := range it.NumMethods() {
					if it.Method(i).Name() == fn.Name() {
						return true
					}
				}
			}
		}
		return false
	}

	type decl struct {
		pkg  *loader.Package
		fd   *ast.FuncDecl
		used bool
	}
	decls := map[*types.Func]*decl{}
	for _, p := range pkgs {
		if p.Types.Name() == "main" {
			continue
		}
		sup := lintutil.NewSuppressions(p.Fset, p.Files)
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() || sup.Suppressed(p.Fset, fd.Name.Pos(), "api") {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok || fd.Recv != nil && implements(fn) {
					continue
				}
				decls[fn] = &decl{pkg: p, fd: fd}
			}
		}
	}
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if d := decls[fn.Origin()]; d != nil && !(d.pkg == p && d.fd.Pos() <= id.Pos() && id.Pos() < d.fd.End()) {
				d.used = true
			}
		}
	}
	var out []string
	for fn, d := range decls {
		if d.used {
			continue
		}
		name := fn.Name()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			name = types.TypeString(lintutil.Deref(recv.Type()), types.RelativeTo(fn.Pkg())) + "." + name
		}
		pos := d.pkg.Fset.Position(d.fd.Name.Pos())
		out = append(out, fmt.Sprintf("%s.%s (%s:%d)", fn.Pkg().Path(), name, pos.Filename[strings.LastIndex(pos.Filename, "/")+1:], pos.Line))
	}
	slices.Sort(out)
	return out
}

// TestNoTestOnlyAPI loads every package of the module and of the benchmark
// module from their non-test files and fails on each export the tests alone
// call. The benchmark module's go.mod replaces sqalpel with this tree, so
// listing "sqalpel/..." from there loads both, and the benchmark's calls
// count.
func TestNoTestOnlyAPI(t *testing.T) {
	pkgs, err := loader.LoadPackages("../../../benchmarks", "sqalpel/...", "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		for _, e := range p.Errors {
			t.Errorf("%s: %v", p.Path, e)
		}
	}
	for _, u := range unused(pkgs) {
		t.Errorf("%s has no caller outside the tests: delete it, move it into an export_test.go, give it a product caller, or say why it stays with //lint:api <reason>", u)
	}
}

// TestFixture runs the check over testdata/src: it must report exactly the
// exports the fixture marks as findings — an uncalled function and method,
// one called only by itself, and one whose //lint:api gives no reason.
func TestFixture(t *testing.T) {
	pkgs, err := loader.LoadFixtures("testdata/src", "api", "user", "cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		for _, e := range p.Errors {
			t.Fatalf("%s: %v", p.Path, e)
		}
	}
	var got []string
	for _, u := range unused(pkgs) {
		got = append(got, u[:strings.Index(u, " (")])
	}
	want := []string{"api.Bare", "api.Recursive", "api.T.Unused", "api.Uncalled"}
	if !slices.Equal(got, want) {
		t.Fatalf("findings %v, want %v", got, want)
	}
}
