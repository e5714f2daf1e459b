// Package loader turns Go packages into the parsed-and-type-checked form
// the analyzers consume, using only the standard library and the go
// command. It replaces golang.org/x/tools/go/packages (unavailable in this
// build environment) with two loading modes:
//
//   - LoadPackages: module mode. `go list -deps -export -json` enumerates
//     the requested packages plus their dependency closure; packages of the
//     main module and of modules it replaces with a local directory are
//     parsed and type-checked from source in dependency order, while
//     standard-library dependencies are imported from the compiler export
//     data the go command just produced. No network, no third-party
//     modules.
//   - LoadFixtures: analysistest mode. Packages live under a
//     testdata/src/<importpath> tree, import each other by those relative
//     paths, and may import the standard library; the loader resolves
//     fixture imports against the tree and everything else through one
//     batched `go list -export` call.
//
// Both modes produce *Package values carrying the FileSet, the syntax
// trees (with comments — the suppression scanner needs them), the
// *types.Package and a fully populated *types.Info.
package loader

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Errors holds type-checking errors. The analyzers run regardless —
	// a finding in a broken package is still a finding — but drivers
	// surface these so a typo cannot silently shrink coverage.
	Errors []error
}

// listedPackage is the subset of `go list -json` output the loader uses.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Imports    []string
	Match      []string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// goList runs the go command and decodes its JSON package stream.
func goList(dir string, args ...string) ([]*listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-json"}, args...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	out, err := cmd.Output()
	if err != nil {
		msg := err.Error()
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			msg = string(ee.Stderr)
		}
		return nil, fmt.Errorf("go list %s: %s", strings.Join(args, " "), msg)
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// newInfo returns a types.Info with every map the analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// exportImporter imports packages from compiler export data files, keyed by
// import path. It wraps go/importer's gc importer with a lookup into the
// files `go list -export` reported.
func exportImporter(fset *token.FileSet, exportFiles map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exportFiles[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// combinedImporter resolves module-internal imports from the already
// type-checked set and everything else from export data.
type combinedImporter struct {
	local  map[string]*types.Package
	export types.Importer
}

func (ci *combinedImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := ci.local[path]; ok {
		return p, nil
	}
	return ci.export.Import(path)
}

// parseDirFiles parses the named files (absolute or dir-relative) with
// comments attached.
func parseDirFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// typeCheck runs go/types over the parsed files, collecting (not aborting
// on) type errors.
func typeCheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, []error) {
	info := newInfo()
	var errs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	pkg, _ := conf.Check(path, fset, files, info)
	return pkg, info, errs
}

// LoadPackages loads the module packages matched by the patterns (e.g.
// "./...") rooted at dir, type-checked against their full dependency
// closure. Module packages are those of the main module and of any module
// its go.mod replaces with a local directory; the standard library is
// imported from export data. A pattern that matches no module package, or
// names one that cannot be listed, is an error: a gate that loads nothing
// checks nothing.
func LoadPackages(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, append([]string{"-deps", "-export"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	byPath := map[string]*listedPackage{}
	exportFiles := map[string]string{}
	matched := map[string]bool{}
	for _, p := range listed {
		byPath[p.ImportPath] = p
		if p.Export != "" {
			exportFiles[p.ImportPath] = p.Export
		}
		if p.Error != nil && (p.Module != nil || !p.DepOnly) {
			return nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Module != nil {
			for _, m := range p.Match {
				matched[m] = true
			}
		}
	}
	for _, pat := range patterns {
		if !matched[pat] {
			return nil, fmt.Errorf("pattern %s matched no module package", pat)
		}
	}

	fset := token.NewFileSet()
	ci := &combinedImporter{local: map[string]*types.Package{}, export: exportImporter(fset, exportFiles)}

	var out []*Package
	checked := map[string]bool{}
	var check func(p *listedPackage) error
	check = func(p *listedPackage) error {
		if checked[p.ImportPath] {
			return nil
		}
		checked[p.ImportPath] = true
		// Module-internal dependencies first, so the combined importer can
		// hand them out; everything else comes from export data.
		for _, imp := range p.Imports {
			if dep := byPath[imp]; dep != nil && dep.Module != nil {
				if err := check(dep); err != nil {
					return err
				}
			}
		}
		files, err := parseDirFiles(fset, p.Dir, p.GoFiles)
		if err != nil {
			return err
		}
		tpkg, info, errs := typeCheck(fset, p.ImportPath, files, ci)
		ci.local[p.ImportPath] = tpkg
		out = append(out, &Package{
			Path:   p.ImportPath,
			Dir:    p.Dir,
			Fset:   fset,
			Files:  files,
			Types:  tpkg,
			Info:   info,
			Errors: errs,
		})
		return nil
	}
	for _, p := range listed {
		if p.Module == nil || p.Standard {
			continue
		}
		if err := check(p); err != nil {
			return nil, err
		}
	}
	// Keep only the pattern roots in the result: dependencies were loaded
	// solely to type-check them.
	roots := out[:0]
	for _, p := range out {
		if lp := byPath[p.Path]; lp != nil && !lp.DepOnly {
			roots = append(roots, p)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Path < roots[j].Path })
	return roots, nil
}

// stdExports caches export-data locations for standard-library packages
// across LoadFixtures calls within one process (the analyzer tests all
// need the same handful of packages).
var stdExports = struct {
	sync.Mutex
	files map[string]string
}{files: map[string]string{}}

// stdExportFiles ensures export data exists for the given stdlib import
// paths (plus their dependency closures) and returns the cached map.
func stdExportFiles(paths []string) (map[string]string, error) {
	stdExports.Lock()
	defer stdExports.Unlock()
	var missing []string
	for _, p := range paths {
		if _, ok := stdExports.files[p]; !ok && p != "unsafe" {
			missing = append(missing, p)
		}
	}
	if len(missing) > 0 {
		listed, err := goList("", append([]string{"-deps", "-export"}, missing...)...)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				stdExports.files[p.ImportPath] = p.Export
			}
		}
	}
	return stdExports.files, nil
}

// fixtureImporter resolves imports for testdata packages: paths that exist
// as directories under the fixture root load (and type-check) as fixtures,
// everything else imports from standard-library export data.
type fixtureImporter struct {
	root    string
	fset    *token.FileSet
	loaded  map[string]*Package
	loading map[string]bool
	std     types.Importer
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	dir := filepath.Join(fi.root, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		p, err := fi.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return fi.std.Import(path)
}

// load parses and type-checks one fixture package by its import path.
func (fi *fixtureImporter) load(path string) (*Package, error) {
	if p, ok := fi.loaded[path]; ok {
		return p, nil
	}
	if fi.loading[path] {
		return nil, fmt.Errorf("fixture import cycle through %q", path)
	}
	fi.loading[path] = true
	defer delete(fi.loading, path)

	dir := filepath.Join(fi.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("fixture package %q: %w", path, err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("fixture package %q: no Go files in %s", path, dir)
	}
	files, err := parseDirFiles(fi.fset, dir, names)
	if err != nil {
		return nil, err
	}
	tpkg, info, errs := typeCheck(fi.fset, path, files, fi)
	p := &Package{Path: path, Dir: dir, Fset: fi.fset, Files: files, Types: tpkg, Info: info, Errors: errs}
	fi.loaded[path] = p
	return p, nil
}

// LoadFixtures loads analysistest packages from root (a testdata/src
// directory) by their tree-relative import paths.
func LoadFixtures(root string, paths ...string) ([]*Package, error) {
	// One pass over the whole tree to collect the stdlib imports any
	// fixture mentions, so a single go list call covers them all.
	var stdPaths []string
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		fset := token.NewFileSet()
		f, perr := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if perr != nil {
			return perr
		}
		for _, imp := range f.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			if seen[ip] {
				continue
			}
			seen[ip] = true
			if st, serr := os.Stat(filepath.Join(root, filepath.FromSlash(ip))); serr == nil && st.IsDir() {
				continue // fixture-local import
			}
			stdPaths = append(stdPaths, ip)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	exports, err := stdExportFiles(stdPaths)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	fi := &fixtureImporter{
		root:    root,
		fset:    fset,
		loaded:  map[string]*Package{},
		loading: map[string]bool{},
		std:     exportImporter(fset, exports),
	}
	var out []*Package
	for _, p := range paths {
		pkg, err := fi.load(p)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}
