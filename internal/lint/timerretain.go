package lint

import (
	"go/ast"
	"go/types"
)

// Timerretain flags timer/ticker handles retained in struct fields of
// types that wall-clock goroutines can reach — the exact data-race class
// PR 6 hit in the live runtime: a handle armed on the sim event loop,
// stored in a struct a livenet goroutine also touches, then Stop'd or
// Reschedule'd off-loop, racing the kernel's timer heap. Handles are
// safe while they stay on the goroutine that armed them (sim-only
// packages retain them freely); the hazard begins when the retaining
// type is itself reachable from real goroutines.
//
// Wall-reachability heuristic (documented in DESIGN.md §14): a package's
// types count as reachable from wall-clock goroutines if either
//
//  1. the package lies on the wall-clock side of the repo's fence — it
//     matches Config.AllowPackages (internal/clock, internal/livenet,
//     cmd/, examples/), the same list that exempts it from the SimOnly
//     analyzers; the fence cuts both ways, or
//  2. the package launches goroutines itself (it contains a `go`
//     statement, annotated or not) — whatever its structs hold is then
//     shared with those goroutines.
//
// Audited retention sites (e.g. a handle owned by a mutex-guarded
// wall-clock ticker implementation) carry //availlint:allow timerretain.
var Timerretain = &Analyzer{
	Name: "timerretain",
	Doc:  "flag sim.Timer/clock.Ticker handles stored in struct fields reachable from wall-clock goroutines",
	Run:  runTimerretain,
}

const (
	simPath   = "press/internal/sim"
	clockPath = "press/internal/clock"
)

// handleTypeName returns a description of t if it is (or contains, via
// pointers/slices/arrays/maps) a timer or ticker handle type: the
// concrete sim kernel handle sim.Timer, or the portable clock.Timer /
// clock.Ticker interfaces. "" otherwise.
func handleTypeName(t types.Type) string {
	switch u := t.(type) {
	case *types.Pointer:
		return handleTypeName(u.Elem())
	case *types.Slice:
		return handleTypeName(u.Elem())
	case *types.Array:
		return handleTypeName(u.Elem())
	case *types.Map:
		return handleTypeName(u.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	pkg, name := named.Obj().Pkg().Path(), named.Obj().Name()
	switch {
	case pkg == simPath && name == "Timer":
		return "sim.Timer"
	case pkg == clockPath && (name == "Timer" || name == "Ticker"):
		return "clock." + name
	}
	return ""
}

func runTimerretain(pass *Pass) {
	if !wallReachable(pass) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				tv, ok := pass.Info.Types[field.Type]
				if !ok {
					continue
				}
				handle := handleTypeName(tv.Type)
				if handle == "" {
					continue
				}
				pos := field.Type.Pos()
				if len(field.Names) > 0 {
					pos = field.Names[0].Pos()
				}
				pass.Reportf(pos,
					"%s handle retained in a struct field of a wall-clock-reachable type: Stop/Reschedule off the sim goroutine races the kernel timer heap (the PR 6 livenet race class); keep the handle on the arming goroutine, or annotate the audited site with //availlint:allow timerretain",
					handle)
			}
			return true
		})
	}
}

// wallReachable classifies the package under analysis per the heuristic
// in the analyzer doc: wall-clock packages by policy, or any package
// that spawns goroutines of its own.
func wallReachable(pass *Pass) bool {
	if pass.Cfg.Allowed(pass.PkgPath) {
		return true
	}
	found := false
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if _, ok := n.(*ast.GoStmt); ok {
				found = true
			}
			return !found
		})
		if found {
			break
		}
	}
	return found
}
