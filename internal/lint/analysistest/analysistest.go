// Package analysistest runs an analyzer over packages in a testdata/src
// tree and checks its diagnostics against the x/tools-style "// want"
// expectations embedded in the fixture sources:
//
//	for k := range m { // want `iteration over map`
//
// Each want comment carries one or more back-quoted or double-quoted
// regular expressions; every expectation must be matched by a diagnostic
// on that line, and every diagnostic must match an expectation. Fixture
// packages must type-check — a broken fixture fails the test rather than
// silently testing nothing.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strings"
	"testing"

	"sqalpel/internal/lint/analysis"
	"sqalpel/internal/lint/loader"
)

// expectation is one want pattern at a file position.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// wantRE extracts the quoted patterns of one want comment.
var wantRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// parseWants scans a file's comments for // want expectations.
func parseWants(t *testing.T, fset *token.FileSet, file *ast.File) []*expectation {
	var wants []*expectation
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "want ") && text != "want" {
				continue
			}
			pos := fset.Position(c.Pos())
			matches := wantRE.FindAllStringSubmatch(strings.TrimPrefix(text, "want"), -1)
			if len(matches) == 0 {
				t.Errorf("%s:%d: malformed want comment (no quoted pattern): %s", pos.Filename, pos.Line, text)
				continue
			}
			for _, m := range matches {
				raw := m[1]
				if raw == "" {
					raw = m[2]
				}
				re, err := regexp.Compile(raw)
				if err != nil {
					t.Errorf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, raw, err)
					continue
				}
				wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
			}
		}
	}
	return wants
}

// Run loads the fixture packages under dir/src by import path, applies the
// analyzer to each, and diffs diagnostics against the want comments.
//
//lint:api the analyzers' fixture harness; their tests are its callers
func Run(t *testing.T, dir string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	pkgs, err := loader.LoadFixtures(dir+"/src", paths...)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	for _, pkg := range pkgs {
		for _, e := range pkg.Errors {
			t.Errorf("fixture %s does not type-check: %v", pkg.Path, e)
		}
		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if _, err := a.Run(pass); err != nil {
			t.Fatalf("%s: running %s: %v", pkg.Path, a.Name, err)
		}

		var wants []*expectation
		for _, f := range pkg.Files {
			wants = append(wants, parseWants(t, pkg.Fset, f)...)
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			matched := false
			for _, w := range wants {
				if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.pattern.MatchString(d.Message) {
					w.matched = true
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("%s: unexpected diagnostic: %s", fmt.Sprintf("%s:%d", pos.Filename, pos.Line), d.Message)
			}
		}
		for _, w := range wants {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.pattern)
			}
		}
	}
}
