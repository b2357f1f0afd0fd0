// Package lint is availlint: the analyzer whose bugs no behavioural test
// catches (DESIGN §14). snapfields requires every field of a struct a
// snapshot walk moves to be mentioned by the package's walks, or to carry
// an exemption. The determinism bans (no wall clock, no global RNG, no
// eager formatting in an Emit argument, no goroutine outside the engine's
// pools) are rows of TestSourceRules.
//
// The suite is self-contained on the standard library's go/ast and
// go/types (golang.org/x/tools is not a dependency). The Analyzer/Pass
// shapes below mirror golang.org/x/tools/go/analysis.
//
// Exempting a field: a comment containing "availlint:skipfield <name>
// <reason>" on (or above) a struct field's declaration exempts that field
// from snapfields' coverage requirement, e.g.
// //availlint:skipfield cfg immutable config, identical across forks.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// Analyzer is one named check. Run inspects the package in pass and
// reports findings through pass.Reportf.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	PkgPath  string

	skip  map[string]map[int][]string // filename -> line -> field names skipfield'd there
	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// SkipfieldAt reports whether an "availlint:skipfield <name>" annotation
// on pos's line (or the line above) names field. snapfields consults it
// before requiring snapshot coverage of a struct field.
func (p *Pass) SkipfieldAt(pos token.Pos, field string) bool {
	at := p.Fset.Position(pos)
	lines := p.skip[at.Filename]
	return slices.Contains(lines[at.Line], field) || slices.Contains(lines[at.Line-1], field)
}

// skipfieldRe matches field exemptions anywhere inside a comment's text,
// "availlint:skipfield <field> <reason>": the field name is one Go
// identifier, the reason free text.
var skipfieldRe = regexp.MustCompile(`availlint:skipfield\s+([A-Za-z_][A-Za-z0-9_]*)`)

// skipfields indexes every skipfield annotation by file and line, under
// the field it names. An annotation covers its own line and the line
// below, so it can sit at the end of the line it is about or on its own
// line above.
func skipfields(fset *token.FileSet, files []*ast.File) map[string]map[int][]string {
	idx := map[string]map[int][]string{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := skipfieldRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				if idx[pos.Filename] == nil {
					idx[pos.Filename] = map[int][]string{}
				}
				idx[pos.Filename][pos.Line] = append(idx[pos.Filename][pos.Line], m[1])
			}
		}
	}
	return idx
}

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{Snapfields}
}

// ByName resolves a comma-separated analyzer selection ("" = all).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	var known []string
	for _, a := range All() {
		byName[a.Name] = a
		known = append(known, a.Name)
	}
	var sel []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", n, strings.Join(known, ", "))
		}
		sel = append(sel, a)
	}
	return sel, nil
}

// Run applies each analyzer to each package and returns the surviving
// diagnostics sorted by position (then analyzer, then message), so the
// output is deterministic regardless of analyzer iteration internals.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		skip := skipfields(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				PkgPath:  pkg.PkgPath,
				skip:     skip,
				diags:    &diags,
			}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}
