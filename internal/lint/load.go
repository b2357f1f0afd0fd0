// Package lint loads the module's packages, parsed and type-checked with
// the standard library's go/ast and go/types, for TestSourceRules: the
// structural rules over the product source that no behavioural test
// observes, one row each, every row held to fixtures under testdata/src
// (DESIGN §14). golang.org/x/tools is not a dependency.
package lint

import (
	"bytes"
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
	"strconv"
	"sync"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// The loader shells out to `go list -export` for dependency export data
// and type-checks target packages from source with go/types. This is the
// pre-go/packages way of loading typed packages, chosen because the
// toolchain is the only dependency this container guarantees.

// exportCache maps import paths to gc export-data files, accumulated
// across go list invocations (stdlib entries never change within a run).
var exportCache = struct {
	sync.Mutex
	m map[string]string
}{m: map[string]string{}}

type listedPkg struct {
	ImportPath string
	Dir        string
	Name       string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// goList runs `go list -e -deps -export -json` in dir, records every
// package's export data in exportCache, and returns the listed packages.
func goList(dir string, patterns []string) ([]listedPkg, error) {
	args := []string{
		"list", "-e", "-deps", "-export",
		"-json=ImportPath,Dir,Name,Export,GoFiles,DepOnly,Standard,Error",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, errb.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(&out)
	for {
		var p listedPkg
		if err := dec.Decode(&p); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("go list %v: decoding output: %v", patterns, err)
		}
		pkgs = append(pkgs, p)
	}
	exportCache.Lock()
	for _, p := range pkgs {
		if p.Export != "" {
			exportCache.m[p.ImportPath] = p.Export
		}
	}
	exportCache.Unlock()
	return pkgs, nil
}

// exportLookup feeds cached export data to the gc importer.
func exportLookup(path string) (io.ReadCloser, error) {
	exportCache.Lock()
	file, ok := exportCache.m[path]
	exportCache.Unlock()
	if !ok {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(file)
}

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

// check parses the named files and type-checks them as one package.
func check(fset *token.FileSet, imp types.Importer, pkgPath, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	info := newInfo()
	tpkg, _ := conf.Check(pkgPath, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v (+%d more)", pkgPath, typeErrs[0], len(typeErrs)-1)
	}
	return &Package{
		PkgPath: pkgPath,
		Fset:    fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}, nil
}

// Load resolves the go list patterns relative to dir (a directory inside
// the module) and returns the matched packages parsed and type-checked.
// Only non-test files are analyzed: the determinism invariants protect
// production simulation code; tests may use wall-clock timing freely.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exportLookup)
	var pkgs []*Package
	for _, p := range listed {
		if p.DepOnly || p.Standard {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.GoFiles) == 0 {
			continue
		}
		pkg, err := check(fset, imp, p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].PkgPath < pkgs[j].PkgPath })
	return pkgs, nil
}

// LoadFixture type-checks a single directory of Go files that is not
// part of the module (an analysistest-style testdata package). pkgPath
// becomes the package's import path for allowlist classification. The
// fixture's own imports must be resolvable by `go list` from moduleDir
// (in practice: standard library only).
func LoadFixture(moduleDir, dir, pkgPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var goFiles []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			goFiles = append(goFiles, e.Name())
		}
	}
	sort.Strings(goFiles)
	if len(goFiles) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}

	// Resolve the fixture's imports to export data before type-checking.
	fset := token.NewFileSet()
	importSet := map[string]bool{}
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return nil, err
			}
			importSet[path] = true
		}
	}
	var missing []string
	exportCache.Lock()
	for path := range importSet {
		if _, ok := exportCache.m[path]; !ok {
			missing = append(missing, path)
		}
	}
	exportCache.Unlock()
	sort.Strings(missing)
	if len(missing) > 0 {
		if _, err := goList(moduleDir, missing); err != nil {
			return nil, err
		}
	}

	imp := importer.ForCompiler(fset, "gc", exportLookup)
	return check(fset, imp, pkgPath, dir, goFiles)
}
