package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Maporder flags `range` over a map whose body is order-sensitive: it
// appends to a slice declared outside the loop, writes output (fmt
// printing, io/builder writes, channel sends), or consumes randomness.
// Go randomizes map iteration order per run, so any of these silently
// breaks replay determinism — results differ between two runs with the
// same seed even though no logical state changed. Order-insensitive
// bodies (sums, max, set membership, writes into another map) are fine
// and not flagged, and the canonical fix is recognized: appending the
// keys to a slice that is sorted after the loop (sort.* / slices.Sort*)
// is allowed. Maporder applies to every package — even command output
// must be reproducible — so legitimate exceptions are annotated with
// //availlint:allow maporder.
var Maporder = &Analyzer{
	Name: "maporder",
	Doc:  "flag order-sensitive bodies under nondeterministic map iteration",
	Run:  runMaporder,
}

func runMaporder(pass *Pass) {
	for _, f := range pass.Files {
		// Walk functions so each range statement knows its enclosing
		// body (needed for the sorted-after-the-loop exemption).
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkMapRanges(pass, body)
			}
			return true
		})
	}
}

// checkMapRanges inspects fnBody for map-range statements directly inside
// it (nested function literals are visited by their own walk).
func checkMapRanges(pass *Pass, fnBody *ast.BlockStmt) {
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != fnBody {
			return false // handled when the walk reaches the literal itself
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.Info.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if hazard := orderHazard(pass, rs, fnBody); hazard != "" {
			pass.Reportf(rs.Pos(),
				"map iteration order is nondeterministic but the body %s; sort the keys first (collect, sort.*, then range the slice)",
				hazard)
		}
		return true
	})
}

// orderHazard returns a description of the first order-sensitive
// operation in the range body, or "" if the body is order-insensitive.
func orderHazard(pass *Pass, rs *ast.RangeStmt, fnBody *ast.BlockStmt) string {
	var hazard string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if hazard != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			hazard = "sends on a channel"
		case *ast.AssignStmt:
			if h := appendHazard(pass, n, rs, fnBody); h != "" {
				hazard = h
			}
		case *ast.CallExpr:
			if h := callHazard(pass, n); h != "" {
				hazard = h
			}
		}
		return hazard == ""
	})
	return hazard
}

// appendHazard reports an assignment of the form `x = append(x, ...)`
// inside a map-range body, where x outlives the loop and is not sorted
// afterwards.
func appendHazard(pass *Pass, as *ast.AssignStmt, rs *ast.RangeStmt, fnBody *ast.BlockStmt) string {
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !isBuiltinAppend(pass, call) {
			continue
		}
		if i >= len(as.Lhs) && len(as.Lhs) != 1 {
			continue
		}
		lhs := as.Lhs[min(i, len(as.Lhs)-1)]
		name, obj := targetObject(pass, lhs)
		if obj == nil {
			// Appending through an index or pointer expression:
			// conservatively a hazard.
			return "appends to a slice that outlives the loop"
		}
		// Per-iteration slices (declared inside the body) are fine.
		if rs.Pos() <= obj.Pos() && obj.Pos() < rs.End() {
			continue
		}
		if sortedAfter(pass, fnBody, obj, rs.End()) {
			continue // canonical collect-keys-then-sort pattern
		}
		return "appends to " + name + " in iteration order"
	}
	return ""
}

// targetObject resolves an assignable expression to the variable or
// field it names: a bare identifier (`keys`) or a field selection
// (`s.sorted`, resolved to the field object so every `s.sorted` mention
// compares equal). Index and dereference expressions return nil.
func targetObject(pass *Pass, expr ast.Expr) (string, types.Object) {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return e.Name, pass.Info.ObjectOf(e)
	case *ast.SelectorExpr:
		return e.Sel.Name, pass.Info.ObjectOf(e.Sel)
	}
	return "", nil
}

func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// sortFuncs are the sorting entry points that make collected keys
// order-independent again.
var sortFuncs = map[string]bool{
	"sort.Strings": true, "sort.Ints": true, "sort.Float64s": true,
	"sort.Sort": true, "sort.Stable": true, "sort.Slice": true,
	"sort.SliceStable": true,
	"slices.Sort":      true, "slices.SortFunc": true,
	"slices.SortStableFunc": true,
}

// sortedAfter reports whether obj is passed to a sort function after pos
// within the enclosing function body.
func sortedAfter(pass *Pass, fnBody *ast.BlockStmt, obj types.Object, pos token.Pos) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if !sortFuncs[fn.Pkg().Path()+"."+fn.Name()] {
			return true
		}
		for _, arg := range call.Args {
			if _, argObj := targetObject(pass, arg); argObj != nil && argObj == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// outputFuncs are fmt entry points that emit or order-sensitively build
// output. Sprint-family is excluded: building a string per element is
// only a hazard if it is then accumulated, which the append/write checks
// catch.
var outputFuncs = map[string]bool{
	"Print": true, "Println": true, "Printf": true,
	"Fprint": true, "Fprintln": true, "Fprintf": true,
}

// writeMethods are methods whose call inside a map range emits bytes in
// iteration order (io.Writer, strings.Builder, bytes.Buffer, bufio).
var writeMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "Printf": true, "Print": true, "Println": true,
}

// callHazard flags calls that emit output or consume randomness.
func callHazard(pass *Pass, call *ast.CallExpr) string {
	fn := calleeFunc(pass.Info, call)
	if fn == nil {
		return ""
	}
	sig := fn.Type().(*types.Signature)
	if fn.Pkg() != nil && (fn.Pkg().Path() == "math/rand" || fn.Pkg().Path() == "math/rand/v2") {
		return "consumes randomness (RNG draw order would vary run to run)"
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && sig.Recv() == nil && outputFuncs[fn.Name()] {
		return "writes output via fmt." + fn.Name()
	}
	if sig.Recv() != nil && writeMethods[fn.Name()] {
		return "writes output via " + fn.Name()
	}
	return ""
}
