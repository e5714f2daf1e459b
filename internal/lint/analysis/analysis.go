// Package analysis is a self-contained, dependency-free re-implementation
// of the core of golang.org/x/tools/go/analysis: the Analyzer/Pass/
// Diagnostic contract project-specific checkers program against. The build
// environment pins the pure standard library (no module proxy), so the
// x/tools framework cannot be vendored — this package mirrors its shape
// closely enough that the analyzers in internal/lint/... could be ported to
// the real framework by changing one import line.
//
// The deliberate omissions versus x/tools: no Facts (none of sqalpel's
// analyzers need cross-package state), no Requires graph (the suite is
// flat), and no SSA — the checkers work on the AST plus go/types info the
// loader provides.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check: a name (used in diagnostics and in
// suppression comments), a doc string, and the Run function applied once
// per package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, CLI flags and the
	// per-analyzer suppression token (//lint:<token>).
	Name string
	// Doc is the analyzer's documentation: the invariant it enforces, the
	// historical violation that motivated it, and the suppression token.
	Doc string
	// Run applies the check to one package and reports findings through
	// pass.Report. The returned value is ignored by this suite (x/tools
	// uses it for inter-analyzer results) but kept for signature parity.
	Run func(*Pass) (any, error)
}

func (a *Analyzer) String() string { return a.Name }

// Pass carries one package's syntax and type information to an analyzer,
// mirroring x/tools' analysis.Pass.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position and a message.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Inspect walks every file of the pass in depth-first order, calling f for
// each node; f returning false prunes the subtree (ast.Inspect semantics).
func (p *Pass) Inspect(f func(ast.Node) bool) {
	for _, file := range p.Files {
		ast.Inspect(file, f)
	}
}
