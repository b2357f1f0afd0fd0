package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// A sourceRule is a structural property of the product code that no
// behavioural test observes. It reports each violation it finds; every
// name it matches is resolved through go/types, so a comment never does.
type sourceRule struct {
	name  string
	check func(pkgs []*Package) []string
}

// TestSourceRules holds the product code (non-test files of press/...) to
// the rules below, and every .go file of the module to gofmt. Rules that a behavioural test already pins are not
// here: event storage (TestKernelStormAllocatesOnce, TestEventRecordSize)
// and the server's per-peer and per-document state (TestPeerRecordSize,
// TestDocCacheIndexFollowsFill).
func TestSourceRules(t *testing.T) {
	pkgs, err := Load(".", "press/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; expected the whole module", len(pkgs))
	}
	for _, r := range []sourceRule{
		{"side-channel", sideChannels},
		{"hash", hashedLookups},
		{"handler-set", handlerSets},
		{"suite-flag", suiteFlags},
		{"gob", gobImports},
		{"forbidden-callee", forbiddenCallees},
		{"go-statement", goStatements},
		{"snapshot-coverage", snapshotCoverage},
		{"settable-fields", settableFields(maxSettableFields)},
		{"gofmt", unformatted},
	} {
		t.Run(r.name, func(t *testing.T) {
			for _, v := range r.check(pkgs) {
				t.Error(v)
			}
		})
	}
}

// TestWallclock, TestGlobalrand and TestSprintfemit hold the
// forbidden-callee row to fixtures, one per banned class, and
// TestSimgoroutine holds the go-statement row: each flagged package is
// sim-facing under the path it is loaded as, and each true negative is
// loaded under the paths of packages that may touch real time.
func TestWallclock(t *testing.T) {
	runRuleFixture(t, forbiddenCallees, cover("wallclock/sim"), "wallclock/sim")
	for _, path := range []string{"press/internal/clock", "press/internal/livenet", "press/cmd/pressd", "press/examples/failover"} {
		runRuleFixture(t, forbiddenCallees, cover("wallclock/allowed"), path)
	}
}

func TestGlobalrand(t *testing.T) {
	runRuleFixture(t, forbiddenCallees, cover("globalrand/sim"), "globalrand/sim")
	for _, path := range []string{"press/internal/livenet", "press/cmd/pressbench", "press/examples/failover"} {
		runRuleFixture(t, forbiddenCallees, cover("globalrand/allowed"), path)
	}
}

func TestSprintfemit(t *testing.T) {
	runRuleFixture(t, forbiddenCallees, cover("sprintfemit/sim"), "sprintfemit/sim")
	runRuleFixture(t, forbiddenCallees, cover("sprintfemit/clean"), "sprintfemit/clean")
}

func TestSimgoroutine(t *testing.T) {
	runRuleFixture(t, goStatements, cover("simgoroutine/sim"), "press/internal/harness")
	for _, path := range []string{"press/internal/livenet", "press/cmd/pressd", "press/examples/failover"} {
		runRuleFixture(t, goStatements, cover("simgoroutine/allowed"), path)
	}
}

// TestSnapfields holds the snapshot-coverage row to its fixtures: a flagged
// package, annotated and type-exempt true negatives, and the regression
// fixture, which reproduces the PR 6 bug class: a copy of a real snapshot
// type with a deliberately added unserialized field.
func TestSnapfields(t *testing.T) {
	for _, rel := range []string{"snapfields/flagged", "snapfields/skipfield", "snapfields/wiring", "snapfields/regression"} {
		runRuleFixture(t, snapshotCoverage, cover(rel), rel)
	}
}

// TestSettablefields holds the settable-fields row to its fixture: with a
// bound of 4, the fifth field that counts carries the finding, so a field
// the row counts that it should not (unexported, of an unexported or
// differently named type, of an alias) moves the finding up a line.
func TestSettablefields(t *testing.T) {
	runRuleFixture(t, settableFields(4), cover("settablefields"), "press/internal/settablefields")
}

// deletedNames are the second descriptions of a continuation that
// DESIGN §13 "Owners" removed: set-then-call owner tags, the callbacks a
// restore used to rebuild a closure from, the dial registry and its tags,
// the timer serials, and the kernel's re-arm of a closure event. A
// continuation is its owner record (cnet.Env.AfterFor, DialFor, ReadFor;
// a kernel event's function and record, sim.Sim.RestoreAtArg); product
// code that defines one of these names again is bringing the second
// description back.
var deletedNames = regexp.MustCompile(`^(SetNext[A-Z]\w*|TagNextDial|RestoreDisk(Done|Notify|Probe)|RestoreDialer|RestoreTaggedDialer|DialTagged|TaggedDial|tagDialTag|RestoreTimer|RestoreAt|TimerSerial|timerSeq|mailTimer\w*)$`)

// stringKind is the deleted string event kinds' name (DESIGN §12 "One
// vocabulary"): an event kind is a metrics.KindID, and nothing uses a
// metrics.Ev* object.
var stringKind = regexp.MustCompile(`^Ev[A-Z]`)

func sideChannels(pkgs []*Package) (out []string) {
	for _, p := range pkgs {
		eachNode(p, func(n ast.Node, _ *ast.FuncDecl) {
			id, ok := n.(*ast.Ident)
			if !ok {
				return
			}
			if obj := p.Info.Defs[id]; obj != nil && deletedNames.MatchString(obj.Name()) {
				out = append(out, at(p, id, "defines %s, a deleted side channel", obj.Name()))
			}
			if obj := p.Info.Uses[id]; obj != nil && inPkg(obj, "internal/metrics") && stringKind.MatchString(obj.Name()) {
				out = append(out, at(p, id, "uses metrics.%s, a string event kind", obj.Name()))
			}
		})
	}
	return out
}

// hashedLookups holds DESIGN §11 "No hashing on the request path": which
// request a connection carries is the word the runtime keeps with it
// (cnet.Env.ConnWord), and the ports a node serves are slices compared by
// ==. A map type keyed by connection in the server, or from a name to a
// handler in simnet or machine, is one of the deleted tables coming back.
func hashedLookups(pkgs []*Package) (out []string) {
	for _, p := range pkgs {
		byConn := p.PkgPath == "press/internal/server"
		byName := p.PkgPath == "press/internal/simnet" || p.PkgPath == "press/internal/machine"
		if !byConn && !byName {
			continue
		}
		eachNode(p, func(n ast.Node, _ *ast.FuncDecl) {
			e, ok := n.(ast.Expr)
			if !ok || !p.Info.Types[e].IsType() {
				return
			}
			m, ok := p.Info.Types[e].Type.Underlying().(*types.Map)
			if !ok {
				return
			}
			key, isStr := m.Key().Underlying().(*types.Basic)
			_, toFunc := m.Elem().Underlying().(*types.Signature)
			if byConn && isNamed(m.Key(), "internal/cnet", "Conn") {
				out = append(out, at(p, e, "%s is keyed by a connection", m))
			}
			if byName && isStr && key.Kind() == types.String && toFunc {
				out = append(out, at(p, e, "%s looks a handler up by name", m))
			}
		})
	}
	return out
}

// handlerSets holds DESIGN §11 "The connection's word": a server has three
// stream handler sets (client, send and inbound streams), built once in
// newServer; each finds its record through the connection's word. A
// handler literal elsewhere is a per-connection closure coming back. (An
// empty set holds no closure: a refused connection gets one.)
func handlerSets(pkgs []*Package) (out []string) {
	for _, p := range pkgs {
		if p.PkgPath != "press/internal/server" {
			continue
		}
		inside := 0
		eachNode(p, func(n ast.Node, fn *ast.FuncDecl) {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || len(lit.Elts) == 0 || !isNamed(p.Info.TypeOf(lit), "internal/cnet", "StreamHandlers") {
				return
			}
			if isFunc(fn, "newServer") {
				inside++
				return
			}
			out = append(out, at(p, lit, "a cnet.StreamHandlers literal outside newServer"))
		})
		if inside != 3 {
			out = append(out, fmt.Sprintf("newServer builds %d stream handler sets, want 3", inside))
		}
	}
	return out
}

// suiteFlags holds DESIGN §16 "The seam": each protocol suite is one value
// picked in a constructor, and everything after that is a method of the
// value it picked. Each flag is read once in the module, in that
// constructor; a second read is code branching on the suite again. A
// composite-literal key sets the flag and is not a read.
func suiteFlags(pkgs []*Package) (out []string) {
	type flag struct{ pkg, field, ctor string }
	flags := []flag{
		{"internal/server", "Sharded", "newServer"},
		{"internal/membership", "Gossip", "newDaemon"},
		{"internal/frontend", "ShardRoute", "newFrontend"},
	}
	reads := map[flag]int{}
	for _, p := range pkgs {
		eachNode(p, func(n ast.Node, fn *ast.FuncDecl) {
			se, ok := n.(*ast.SelectorExpr)
			if !ok {
				return
			}
			sel := p.Info.Selections[se]
			if sel == nil || sel.Kind() != types.FieldVal {
				return
			}
			recv := sel.Recv()
			if ptr, ok := recv.Underlying().(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			for _, f := range flags {
				if se.Sel.Name != f.field || !isNamed(recv, f.pkg, "Config") {
					continue
				}
				reads[f]++
				if p.PkgPath != "press/"+f.pkg || !isFunc(fn, f.ctor) {
					out = append(out, at(p, se, "reads %s.Config.%s outside %s", f.pkg, f.field, f.ctor))
				}
			}
		})
	}
	for _, f := range flags {
		if reads[f] != 1 {
			out = append(out, fmt.Sprintf("%s.Config.%s is read %d times, want once, in %s", f.pkg, f.field, reads[f], f.ctor))
		}
	}
	return out
}

// maxSettableFields bounds the product's settable config fields. Lower it
// when the count drops.
const maxSettableFields = 64

// settableName matches the struct types whose exported fields are
// settings: any *Config or *Options, the harness's EpisodeSchedule, and
// CostModel, so that the node model's CPU costs (DESIGN §5) do not come
// back as settings under that name.
var settableName = regexp.MustCompile(`^(\w*Config|\w*Options|CostModel|EpisodeSchedule)$`)

// settableFields is the settable-fields row with its bound: every exported
// field of an exported struct type named by settableName, outside this
// package, is one way a caller can configure the product, and each one
// doubles the configurations a reader must consider. The count is a
// ratchet, as the skipfield count is: a value that is one constant in
// every caller belongs in the package that reads it. Past the bound the
// row reports the first field over it, in package and position order.
func settableFields(bound int) func([]*Package) []string {
	return func(pkgs []*Package) (out []string) {
		type field struct {
			p *Package
			v *types.Var
		}
		var fields []field
		for _, p := range pkgs {
			if p.PkgPath == "press/internal/lint" {
				continue
			}
			var here []field
			for _, name := range p.Types.Scope().Names() {
				tn, ok := p.Types.Scope().Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() || !tn.Exported() || !settableName.MatchString(name) {
					continue
				}
				st, ok := tn.Type().Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := range st.NumFields() {
					if f := st.Field(i); f.Exported() {
						here = append(here, field{p, f})
					}
				}
			}
			slices.SortFunc(here, func(a, b field) int { return int(a.v.Pos() - b.v.Pos()) })
			fields = append(fields, here...)
		}
		if len(fields) > bound {
			f := fields[bound]
			out = append(out, fmt.Sprintf("%s: %s is settable config field %d of %d, bound %d: the count only goes down; make a value that is one constant in every caller a constant of its package",
				f.p.Fset.Position(f.v.Pos()), f.v.Name(), bound+1, len(fields), bound))
		}
		return out
	}
}

// gobImports holds DESIGN §18 "One codec on both sockets": livenet's
// datagrams carry snapio.MsgCodec bytes as its stream frames do. A product
// package importing encoding/gob is a second wire format coming back.
// cmd/pressbench names the package only in its profile classifier.
func gobImports(pkgs []*Package) (out []string) {
	for _, p := range pkgs {
		if p.PkgPath == "press/cmd/pressbench" {
			continue
		}
		for _, f := range p.Files {
			for _, spec := range f.Imports {
				if spec.Path.Value == `"encoding/gob"` {
					out = append(out, at(p, spec, "imports encoding/gob"))
				}
			}
		}
	}
	deps, err := exec.Command("go", "list", "-deps", "press/cmd/pressd", "press/cmd/reproduce").Output()
	if err != nil {
		return append(out, fmt.Sprintf("go list -deps: %v", err))
	}
	for _, d := range strings.Fields(string(deps)) {
		if d == "encoding/gob" {
			out = append(out, "encoding/gob is a dependency of cmd/pressd or cmd/reproduce")
		}
	}
	return out
}

// simFacing reports whether the product package path runs inside the
// simulated world (DESIGN §8): every package but the ones that exist to
// touch real time and real sockets, the commands, the examples and this
// linter.
func simFacing(path string) bool {
	for _, wall := range []string{"press/cmd", "press/examples", "press/internal/clock", "press/internal/livenet", "press/internal/lint"} {
		if path == wall || strings.HasPrefix(path, wall+"/") {
			return false
		}
	}
	return true
}

// forbidden are the package-level functions a sim-facing package may not
// name (DESIGN §8): the host's clock, math/rand's process-global
// generator (its constructors are fine: randomness is a *rand.Rand from
// the experiment seed), and, inside an Emit* argument, fmt's eager
// formatting (the event log renders EmitInt details lazily).
var forbidden = []struct {
	pkg    string
	names  *regexp.Regexp
	inEmit bool // only inside the arguments of a call to an Emit* function
	why    string
}{
	{"time", wallClock, false, "reads or waits on the wall clock; use the process clock (cnet.Env.Clock)"},
	{"math/rand", globalRand, false, "draws from the process-global generator; thread a *rand.Rand from the experiment seed"},
	{"math/rand/v2", globalRand, false, "draws from the process-global generator; thread a *rand.Rand from the experiment seed"},
	{"fmt", regexp.MustCompile(`^Sprint(f|ln)?$`), true, "formats on every emission; use EmitInt or an interned constant"},
}

var (
	wallClock  = regexp.MustCompile(`^(Now|Sleep|After|AfterFunc|Tick|NewTicker|NewTimer|Since|Until)$`)
	globalRand = regexp.MustCompile(`^(Int|IntN|Intn|Int31|Int31n|Int32|Int32N|Int63|Int63n|Int64|Int64N|Uint|UintN|Uint32|Uint32N|Uint64|Uint64N|N|Float32|Float64|ExpFloat64|NormFloat64|Perm|Shuffle|Read|Seed)$`)
)

func forbiddenCallees(pkgs []*Package) (out []string) {
	check := func(p *Package, id *ast.Ident, inEmit bool) {
		fn, ok := p.Info.Uses[id].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
			return
		}
		for _, f := range forbidden {
			if f.inEmit == inEmit && fn.Pkg().Path() == f.pkg && f.names.MatchString(fn.Name()) {
				out = append(out, at(p, id, "%s.%s %s", f.pkg, fn.Name(), f.why))
			}
		}
	}
	for _, p := range pkgs {
		if !simFacing(p.PkgPath) {
			continue
		}
		eachNode(p, func(n ast.Node, _ *ast.FuncDecl) {
			switch n := n.(type) {
			case *ast.Ident:
				check(p, n, false)
			case *ast.CallExpr:
				if fn := calleeFunc(p.Info, n); fn == nil || !strings.HasPrefix(fn.Name(), "Emit") {
					return
				}
				for _, arg := range n.Args {
					ast.Inspect(arg, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							check(p, id, true)
						}
						return true
					})
				}
			}
		})
	}
	return out
}

// pools are the functions of a sim-facing package that may hold a go
// statement (DESIGN §7): the engine's worker pools, each bounded by a
// semaphore. Inside the simulated world concurrency is the event queue;
// any other goroutine races it.
var pools = map[string][]string{
	"press/internal/harness": {"prewarmJobs", "runCampaign"},
	"press/internal/chaos":   {"runSeeds"},
}

func goStatements(pkgs []*Package) (out []string) {
	for _, p := range pkgs {
		if !simFacing(p.PkgPath) {
			continue
		}
		eachNode(p, func(n ast.Node, fn *ast.FuncDecl) {
			if _, ok := n.(*ast.GoStmt); ok && (fn == nil || !slices.Contains(pools[p.PkgPath], fn.Name.Name)) {
				out = append(out, at(p, n, "a go statement outside the engine's worker pools"))
			}
		})
	}
	return out
}

// unformatted lists the module's .go files — test files and test data
// included — that gofmt would rewrite.
func unformatted([]*Package) (out []string) {
	root, err := filepath.Abs(".")
	for err == nil {
		if _, statErr := os.Stat(filepath.Join(root, "go.mod")); statErr == nil {
			break
		}
		if parent := filepath.Dir(root); parent != root {
			root = parent
		} else {
			err = fmt.Errorf("no go.mod above the test's directory")
		}
	}
	if err == nil {
		err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root:
				return filepath.SkipDir
			case d.IsDir() || !strings.HasSuffix(path, ".go"):
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if formatted, err := format.Source(src); err != nil || !bytes.Equal(formatted, src) {
				rel, _ := filepath.Rel(root, path)
				out = append(out, fmt.Sprintf("%s: not gofmt-formatted (gofmt -w %s)", rel, rel))
			}
			return nil
		})
	}
	if err != nil {
		out = append(out, err.Error())
	}
	return out
}

// eachNode walks p's files in order, passing each node and the function
// declaration it sits in (nil outside one).
func eachNode(p *Package, visit func(n ast.Node, fn *ast.FuncDecl)) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fn, _ := d.(*ast.FuncDecl)
			ast.Inspect(d, func(n ast.Node) bool {
				if n != nil {
					visit(n, fn)
				}
				return true
			})
		}
	}
}

// isFunc reports whether fn is the package-level function name.
func isFunc(fn *ast.FuncDecl, name string) bool {
	return fn != nil && fn.Recv == nil && fn.Name.Name == name
}

// inPkg reports whether obj belongs to the module package rel.
func inPkg(obj types.Object, rel string) bool {
	return obj.Pkg() != nil && obj.Pkg().Path() == "press/"+rel
}

// isNamed reports whether t is the type name declared in module package rel.
func isNamed(t types.Type, rel, name string) bool {
	n, ok := types.Unalias(t).(*types.Named)
	return ok && n.Obj().Name() == name && inPkg(n.Obj(), rel)
}

func at(p *Package, n ast.Node, format string, args ...any) string {
	return fmt.Sprintf("%s: %s", p.Fset.Position(n.Pos()), fmt.Sprintf(format, args...))
}

// calleeFunc resolves a call's callee (a function or a method), or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
