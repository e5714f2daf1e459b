// Command sqalpel-vet runs the project's static-analysis suite
// (internal/lint): mapiterdet, lockmarshal, sqlsemroute, tracenilalloc and
// walack — the mechanically enforced invariants of determinism, lock
// discipline, NULL semantics, the zero-alloc trace seam and WAL
// durability. See ARCHITECTURE.md, "Enforced invariants".
//
//	sqalpel-vet [packages]
//
// loads the package patterns (default ./...) through the go command, runs
// every analyzer over each package and prints the findings. It exits 0
// when there are none and 2 when there are. It exits 1 when a pattern
// names no package, a package does not type-check, or an argument starts
// with "-": the command has no flags.
package main

import (
	"fmt"
	"go/token"
	"io"
	"os"
	"sort"
	"strings"

	"sqalpel/internal/lint"
	"sqalpel/internal/lint/analysis"
	"sqalpel/internal/lint/loader"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// finding is one rendered diagnostic.
type finding struct {
	pos      token.Position
	analyzer string
	message  string
}

// run vets the packages the patterns name, writing findings and errors to
// w, and returns the exit code.
func run(patterns []string, w io.Writer) int {
	for _, p := range patterns {
		if strings.HasPrefix(p, "-") {
			fmt.Fprintf(w, "sqalpel-vet: %s: the command takes no flags\n", p)
			usage(w)
			return 1
		}
	}
	pkgs, err := loader.LoadPackages(".", patterns...)
	if err != nil {
		fmt.Fprintf(w, "sqalpel-vet: %v\n", err)
		return 1
	}
	var found []finding
	failed := false
	for _, pkg := range pkgs {
		for _, e := range pkg.Errors {
			fmt.Fprintf(w, "sqalpel-vet: %s: %v\n", pkg.Path, e)
			failed = true
		}
		if len(pkg.Errors) > 0 {
			continue
		}
		for _, a := range lint.Analyzers() {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Report: func(d analysis.Diagnostic) {
					found = append(found, finding{pos: pkg.Fset.Position(d.Pos), analyzer: a.Name, message: d.Message})
				},
			}
			if _, err := a.Run(pass); err != nil {
				fmt.Fprintf(w, "sqalpel-vet: %s: %s: %v\n", pkg.Path, a.Name, err)
				failed = true
			}
		}
	}
	sort.Slice(found, func(i, j int) bool {
		a, b := found[i], found[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		return a.analyzer < b.analyzer
	})
	for _, f := range found {
		fmt.Fprintf(w, "%s: [%s] %s\n", f.pos, f.analyzer, f.message)
	}
	switch {
	case failed:
		return 1
	case len(found) > 0:
		return 2
	}
	return 0
}

// usage lists the command's one form and the analyzers it runs.
func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: sqalpel-vet [packages]  (default ./...; exit 0 clean, 2 findings, 1 error)")
	for _, a := range lint.Analyzers() {
		fmt.Fprintf(w, "  %-13s %s\n", a.Name, a.Doc)
	}
}
