package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Poolsafety checks the pooled-message ownership discipline that PR 5's
// zero-alloc protocol path rests on: records drawn from cnet.MsgPool
// travel as pointers with exactly one owner, and the final consumer
// calls Release, which zeroes the record and returns it to the free
// list. Violations corrupt replay in ways that surface far from the
// cause — a use-after-Release reads a record the pool already handed to
// another send; a double-Release puts the same pointer on the free list
// twice, so two later Gets alias; a missing Release leaks quietly until
// allocation benchmarks move; and a pooled record stored into a
// longer-lived structure keeps mutating after recycling.
//
// The analysis is flow-sensitive within one function (DESIGN.md §14): an
// abstract interpreter walks the statement tree carrying an ownership
// state per local variable — live / released / maybe-released (joined
// across branches) / escaped (ownership handed off) — with paths that
// end in return or panic excluded from joins, and loop bodies run to a
// two-pass fixpoint so cross-iteration hazards surface. Ownership
// transfer is any call that takes the record (the receiver or a helper
// becomes the owner), so inter-procedural flows are out of scope by
// construction; what remains checkable — and checked — is:
//
//   - use after Release (and use after a Release on some branch)
//   - double Release
//   - a record obtained from a pool in this function reaching an exit
//     path without Release or hand-off
//   - a pool-owned record escaping into a retained structure: struct
//     field, map/slice element, append, channel send, or closure capture
//     (clone it through the pool-less path instead, or annotate the
//     audited hand-off with //availlint:allow poolsafety)
var Poolsafety = &Analyzer{
	Name: "poolsafety",
	Doc:  "flow-sensitive pooled-record ownership: use-after-Release, double-Release, leaked or escaping cnet.MsgPool records",
	Run:  runPoolsafety,
}

const cnetPath = "press/internal/cnet"

// psState is the per-variable ownership lattice.
type psState int

const (
	psLive     psState = iota // owns a pool-fresh record
	psReleased                // definitely released on every path here
	psMaybe                   // released on some path, live on another
	psEscaped                 // ownership handed off; no further claims
)

// psVar is one tracked variable's abstract state.
type psVar struct {
	state   psState
	fromGet bool      // drawn from a pool in this function (leak/escape checked)
	getPos  token.Pos // the draw site, for leak reporting
}

type psEnv map[types.Object]*psVar

func (e psEnv) clone() psEnv {
	c := make(psEnv, len(e))
	for k, v := range e {
		cv := *v
		c[k] = &cv
	}
	return c
}

// join merges the abstract states of two non-abrupt paths.
func joinEnv(a, b psEnv) psEnv {
	out := make(psEnv, len(a))
	for k, av := range a {
		bv, ok := b[k]
		if !ok {
			cv := *av
			out[k] = &cv
			continue
		}
		cv := *av
		if av.state != bv.state {
			switch {
			case av.state == psEscaped || bv.state == psEscaped:
				cv.state = psEscaped
			default:
				cv.state = psMaybe
			}
		}
		out[k] = &cv
	}
	for k, bv := range b {
		if _, ok := a[k]; !ok {
			cv := *bv
			out[k] = &cv
		}
	}
	return out
}

func runPoolsafety(pass *Pass) {
	w := &psWalker{pass: pass, reported: map[string]bool{}}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					w.analyze(fn.Body)
				}
			case *ast.FuncLit:
				// Closures are analyzed as functions in their own right;
				// the enclosing function's walk treats them opaquely
				// (capture of a pool-owned record is an escape there).
				w.analyze(fn.Body)
			}
			return true
		})
	}
}

type psWalker struct {
	pass     *Pass
	reported map[string]bool
}

func (w *psWalker) reportf(pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%d|%s", pos, msg)
	if w.reported[key] {
		return
	}
	w.reported[key] = true
	w.pass.Reportf(pos, "%s", msg)
}

func (w *psWalker) analyze(body *ast.BlockStmt) {
	env := psEnv{}
	abrupt := w.stmt(body, env)
	if !abrupt {
		w.leakCheck(env, body.End())
	}
}

// leakCheck reports pool-drawn records still live at an exit point.
func (w *psWalker) leakCheck(env psEnv, exit token.Pos) {
	for _, v := range env {
		if v.fromGet && (v.state == psLive || v.state == psMaybe) {
			w.reportf(v.getPos,
				"pooled record drawn here can reach the exit at line %d without Release or ownership hand-off; release it on every path",
				w.pass.Fset.Position(exit).Line)
		}
	}
}

// stmt interprets one statement, mutating env, and reports whether the
// statement ends abruptly (return/panic/branch), excluding it from joins.
func (w *psWalker) stmt(s ast.Stmt, env psEnv) bool {
	switch s := s.(type) {
	case nil:
		return false
	case *ast.BlockStmt:
		for _, st := range s.List {
			if w.stmt(st, env) {
				return true
			}
		}
		return false
	case *ast.AssignStmt:
		w.assign(s, env)
		return false
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var rhs ast.Expr
					if i < len(vs.Values) {
						rhs = vs.Values[i]
					}
					w.assignOne(name, rhs, env)
				}
			}
		}
		return false
	case *ast.ExprStmt:
		if w.releaseCall(s.X, env) {
			return false
		}
		if w.isAbruptCall(s.X) {
			w.useExpr(s.X, env)
			return true
		}
		w.useExpr(s.X, env)
		return false
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.useExpr(r, env)
			// Returning a live record transfers ownership to the caller.
			if obj := identObj(w.pass, r); obj != nil {
				if v := env[obj]; v != nil && v.state == psLive {
					v.state = psEscaped
				}
			}
		}
		w.leakCheck(env, s.Pos())
		return true
	case *ast.IfStmt:
		w.stmt(s.Init, env)
		w.useExpr(s.Cond, env)
		thenEnv := env.clone()
		thenAbrupt := w.stmt(s.Body, thenEnv)
		elseEnv := env.clone()
		elseAbrupt := false
		hasElse := s.Else != nil
		if hasElse {
			elseAbrupt = w.stmt(s.Else, elseEnv)
		}
		switch {
		case thenAbrupt && elseAbrupt:
			return true
		case thenAbrupt:
			replaceEnv(env, elseEnv)
		case elseAbrupt:
			replaceEnv(env, thenEnv)
		default:
			replaceEnv(env, joinEnv(thenEnv, elseEnv))
		}
		return false
	case *ast.ForStmt:
		w.stmt(s.Init, env)
		w.useExpr(s.Cond, env)
		w.loopBody(func(e psEnv) bool {
			ab := w.stmt(s.Body, e)
			w.stmt(s.Post, e)
			return ab
		}, env)
		return false
	case *ast.RangeStmt:
		w.useExpr(s.X, env)
		w.loopBody(func(e psEnv) bool { return w.stmt(s.Body, e) }, env)
		return false
	case *ast.SwitchStmt:
		w.stmt(s.Init, env)
		w.useExpr(s.Tag, env)
		return w.branches(env, caseBranches(w.pass, s.Body), hasDefaultClause(s.Body))
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, env)
		w.stmt(s.Assign, env)
		return w.branches(env, caseBranches(w.pass, s.Body), hasDefaultClause(s.Body))
	case *ast.SelectStmt:
		var brs []psBranch
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			w.stmt(cc.Comm, env)
			brs = append(brs, psBranch{body: cc.Body})
		}
		return w.branches(env, brs, true)
	case *ast.SendStmt:
		w.useExpr(s.Chan, env)
		w.escapeIfTracked(s.Value, env, "a channel send")
		w.useExpr(s.Value, env)
		return false
	case *ast.GoStmt:
		w.useExpr(s.Call, env)
		return false
	case *ast.DeferStmt:
		// A deferred Release runs at exit: the record is neither leaked
		// nor released yet at any point the body still uses it.
		if sel, ok := s.Call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Release" {
			if obj := identObj(w.pass, sel.X); obj != nil {
				if v := env[obj]; v != nil {
					v.state = psEscaped
					return false
				}
			}
		}
		w.useExpr(s.Call, env)
		return false
	case *ast.BranchStmt:
		return true
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, env)
	case *ast.IncDecStmt:
		w.useExpr(s.X, env)
		return false
	default:
		return false
	}
}

// loopBody interprets a loop body twice — once from the incoming state,
// once from the joined fixpoint — so hazards that need a second
// iteration (Release in iteration N, use in N+1) surface. Diagnostics
// are deduplicated, so the double pass cannot double-report.
func (w *psWalker) loopBody(body func(psEnv) bool, env psEnv) {
	first := env.clone()
	abrupt := body(first)
	joined := env.clone()
	if !abrupt {
		joined = joinEnv(joined, first)
	}
	second := joined.clone()
	abrupt2 := body(second)
	final := joined
	if !abrupt2 {
		final = joinEnv(final, second)
	}
	replaceEnv(env, final)
}

// psBranch is one exclusive case body; fresh is a binding (a type
// switch clause's implicit variable) that starts unbound in the clause,
// so state from a previous loop iteration must not carry in.
type psBranch struct {
	fresh types.Object
	body  []ast.Stmt
}

// branches interprets exclusive case bodies and joins the survivors.
func (w *psWalker) branches(env psEnv, brs []psBranch, exhaustive bool) bool {
	var live []psEnv
	allAbrupt := len(brs) > 0
	for _, b := range brs {
		be := env.clone()
		if b.fresh != nil {
			delete(be, b.fresh)
		}
		abrupt := false
		for _, st := range b.body {
			if w.stmt(st, be) {
				abrupt = true
				break
			}
		}
		if !abrupt {
			live = append(live, be)
			allAbrupt = false
		}
	}
	if exhaustive && allAbrupt {
		return true
	}
	out := env
	if !exhaustive {
		out = env.clone()
		live = append(live, out)
	}
	if len(live) > 0 {
		joined := live[0]
		for _, le := range live[1:] {
			joined = joinEnv(joined, le)
		}
		replaceEnv(env, joined)
	}
	return false
}

func caseBranches(pass *Pass, body *ast.BlockStmt) []psBranch {
	var out []psBranch
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			out = append(out, psBranch{fresh: pass.Info.Implicits[cc], body: cc.Body})
		}
	}
	return out
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

func replaceEnv(dst, src psEnv) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

// assign interprets an assignment statement: RHS uses and pool draws,
// LHS rebinding and escape checks.
func (w *psWalker) assign(s *ast.AssignStmt, env psEnv) {
	// Pair LHS/RHS positionally when possible (a, b = x, y); a single
	// multi-value RHS keeps index 0 for every LHS.
	for i, lhs := range s.Lhs {
		var rhs ast.Expr
		if len(s.Rhs) == len(s.Lhs) {
			rhs = s.Rhs[i]
		} else if len(s.Rhs) == 1 {
			rhs = s.Rhs[0]
		}
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			w.assignOne(id, rhs, env)
			continue
		}
		// Storing into a field, map or slice element: a tracked record
		// anywhere in the RHS escapes into a retained structure.
		w.escapeIfTracked(rhs, env, storeKind(lhs))
		w.useExpr(lhs, env)
		if rhs != nil {
			w.useExpr(rhs, env)
		}
	}
	// Multi-value or extra RHS expressions not paired above still count
	// as uses (their checks are idempotent thanks to dedup).
	if len(s.Rhs) != len(s.Lhs) && len(s.Rhs) > 1 {
		for _, r := range s.Rhs {
			w.useExpr(r, env)
		}
	}
}

func storeKind(lhs ast.Expr) string {
	switch ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return "a struct field"
	case *ast.IndexExpr:
		return "a map or slice element"
	}
	return "a retained structure"
}

// assignOne binds one identifier: a pool draw starts tracking, any other
// RHS ends it (rebinding forfeits the old state; aliasing is untracked).
func (w *psWalker) assignOne(id *ast.Ident, rhs ast.Expr, env psEnv) {
	if rhs != nil {
		w.useExpr(rhs, env)
	}
	obj := w.pass.Info.ObjectOf(id)
	if obj == nil || id.Name == "_" {
		return
	}
	if rhs != nil {
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && w.isPoolDraw(call) {
			env[obj] = &psVar{state: psLive, fromGet: true, getPos: id.Pos()}
			return
		}
	}
	delete(env, obj)
}

// releaseCall handles `x.Release()` / `pool.Put(x)` statements; reports
// double releases and transitions the state.
func (w *psWalker) releaseCall(e ast.Expr, env psEnv) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(w.pass, call)
	if fn == nil || fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	var target ast.Expr
	switch {
	case fn.Name() == "Release" && len(call.Args) == 0 && releasableRecv(fn):
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		target = sel.X
	case fn.Name() == "Put" && len(call.Args) == 1 && isMsgPoolMethod(fn):
		target = call.Args[0]
	default:
		return false
	}
	obj := identObj(w.pass, target)
	if obj == nil {
		return true // releasing through a field/expression: out of scope
	}
	v := env[obj]
	if v == nil {
		// First event we see for this variable (a parameter, a type
		// switch binding): from here on it is released.
		env[obj] = &psVar{state: psReleased}
		return true
	}
	switch v.state {
	case psReleased:
		w.reportf(target.Pos(),
			"pooled record %s is Released twice: the free list holds the pointer twice and two later Gets will alias", obj.Name())
	case psMaybe:
		w.reportf(target.Pos(),
			"pooled record %s may already be Released on some path; a second Release double-Puts it", obj.Name())
	}
	if v.state != psEscaped {
		v.state = psReleased
	}
	return true
}

// releasableRecv reports whether fn is a Release method on a pointer to
// a named struct — the pooled-record shape.
func releasableRecv(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	ptr, ok := recv.Type().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	_, ok = named.Underlying().(*types.Struct)
	return ok
}

// isMsgPoolMethod reports whether fn is a method of cnet.MsgPool.
func isMsgPoolMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named := namedOf(recv.Type())
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == cnetPath && named.Obj().Name() == "MsgPool"
}

// isPoolDraw reports whether call draws an owned record from a pool: a
// direct MsgPool.Get, or a constructor that takes a *cnet.MsgPool
// parameter and returns a pointer (the NewReqMsg(&pool) shape) — of a
// record type that has a Release method. The discipline is the final
// consumer's Release; the simulator's internal free lists (packets, dial
// and timer records, connection pairs) also live in MsgPools but are put
// back by the one function that dispatches them, keep closures over
// themselves by design, and have no Release to check.
func (w *psWalker) isPoolDraw(call *ast.CallExpr) bool {
	fn := calleeFunc(w.pass, call)
	if fn == nil {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Results().Len() != 1 {
		return false
	}
	// The call's own type, not the callee's result: MsgPool[T].Get
	// declares *T, and only the instantiation says which record it is.
	ptr, ok := w.pass.Info.TypeOf(call).(*types.Pointer)
	if !ok || !hasRelease(ptr) {
		return false
	}
	if fn.Name() == "Get" && isMsgPoolMethod(fn) {
		return true
	}
	if sig.Recv() != nil {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if p := namedOf(sig.Params().At(i).Type()); p != nil && p.Obj().Pkg() != nil &&
			p.Obj().Pkg().Path() == cnetPath && p.Obj().Name() == "MsgPool" {
			return true
		}
	}
	return false
}

// hasRelease reports whether the pointer type's method set holds a
// Release method.
func hasRelease(ptr *types.Pointer) bool {
	ms := types.NewMethodSet(ptr)
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == "Release" {
			return true
		}
	}
	return false
}

// isAbruptCall recognizes calls that never return: panic, snapio.Failf
// and friends — their paths are excluded from joins and leak checks.
func (w *psWalker) isAbruptCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := w.pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
			return true
		}
	}
	fn := calleeFunc(w.pass, call)
	if fn == nil {
		return false
	}
	switch fn.Name() {
	case "Failf", "Fatal", "Fatalf", "Exit":
		return true
	}
	return false
}

// identObj resolves a (parenthesized) identifier expression to its
// object, or nil.
func identObj(pass *Pass, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.Info.ObjectOf(id)
}

// useExpr walks an expression, reporting uses of released records,
// ownership transfers through calls, and escapes into retained
// structures; it does not descend into function literals (capture of a
// pool-owned record is reported as an escape instead).
func (w *psWalker) useExpr(e ast.Expr, env psEnv) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.Ident:
		w.checkUse(e, env)
	case *ast.FuncLit:
		w.captureCheck(e, env)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			val := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				val = kv.Value
			}
			w.escapeIfTracked(val, env, "a composite literal")
			w.useExpr(val, env)
		}
	case *ast.CallExpr:
		w.callExpr(e, env)
	case *ast.SelectorExpr:
		w.useExpr(e.X, env)
	case *ast.ParenExpr:
		w.useExpr(e.X, env)
	case *ast.StarExpr:
		w.useExpr(e.X, env)
	case *ast.UnaryExpr:
		w.useExpr(e.X, env)
	case *ast.BinaryExpr:
		w.useExpr(e.X, env)
		w.useExpr(e.Y, env)
	case *ast.IndexExpr:
		w.useExpr(e.X, env)
		w.useExpr(e.Index, env)
	case *ast.IndexListExpr:
		w.useExpr(e.X, env)
		for _, idx := range e.Indices {
			w.useExpr(idx, env)
		}
	case *ast.SliceExpr:
		w.useExpr(e.X, env)
		w.useExpr(e.Low, env)
		w.useExpr(e.High, env)
		w.useExpr(e.Max, env)
	case *ast.TypeAssertExpr:
		w.useExpr(e.X, env)
	case *ast.KeyValueExpr:
		w.useExpr(e.Key, env)
		w.useExpr(e.Value, env)
	}
}

// callExpr handles transfers and append-escapes, then scans arguments.
func (w *psWalker) callExpr(call *ast.CallExpr, env psEnv) {
	w.useExpr(call.Fun, env)
	isAppend := false
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := w.pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
			isAppend = true
		}
	}
	for i, arg := range call.Args {
		if isAppend && i > 0 {
			w.escapeIfTracked(arg, env, "an appended slice")
		}
		if !isAppend {
			// A record wrapped in a composite literal handed straight to
			// a call transfers with the literal — the enqueue(outMsg{m:
			// m}) idiom: the queue becomes the owner and releases after
			// the wire write.
			if lit, ok := ast.Unparen(arg).(*ast.CompositeLit); ok {
				w.transferLitElems(lit, env)
			}
		}
		w.useExpr(arg, env)
		if !isAppend {
			// Passing a live record to any call transfers ownership to
			// the callee (final-consumer discipline): stop tracking.
			if obj := identObj(w.pass, arg); obj != nil {
				if v := env[obj]; v != nil && v.state == psLive {
					v.state = psEscaped
				}
			}
		}
	}
}

// transferLitElems marks tracked records appearing as direct elements of
// a call-argument composite literal as ownership-transferred.
func (w *psWalker) transferLitElems(lit *ast.CompositeLit, env psEnv) {
	for _, elt := range lit.Elts {
		val := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			val = kv.Value
		}
		if obj := identObj(w.pass, val); obj != nil {
			if v := env[obj]; v != nil && v.state == psLive {
				v.state = psEscaped
			}
		}
	}
}

// checkUse reports a read of a (maybe-)released record.
func (w *psWalker) checkUse(id *ast.Ident, env psEnv) {
	obj := w.pass.Info.ObjectOf(id)
	if obj == nil {
		return
	}
	v := env[obj]
	if v == nil {
		return
	}
	switch v.state {
	case psReleased:
		w.reportf(id.Pos(),
			"pooled record %s is used after Release: the pool may already have recycled it into another send", obj.Name())
	case psMaybe:
		w.reportf(id.Pos(),
			"pooled record %s may have been Released on an earlier path; using it here races the recycled record", obj.Name())
	}
}

// captureCheck reports pool-owned records captured by a function
// literal: the closure retains the pointer past this function's
// ownership window.
func (w *psWalker) captureCheck(lit *ast.FuncLit, env psEnv) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := w.pass.Info.Uses[id]
		if obj == nil {
			return true
		}
		if v := env[obj]; v != nil && v.fromGet && (v.state == psLive || v.state == psMaybe) {
			w.reportf(id.Pos(),
				"pooled record %s is captured by a closure while pool-owned: the closure retains it past Release; clone it through the pool-less path or annotate the audited hand-off with //availlint:allow poolsafety", obj.Name())
			v.state = psEscaped
		}
		return true
	})
}

// escapeIfTracked reports a pool-owned record stored into a retained
// structure. expr is checked as a whole identifier only: wrapping the
// record in a clone (a value copy) is exactly the sanctioned path.
func (w *psWalker) escapeIfTracked(expr ast.Expr, env psEnv, into string) {
	if expr == nil {
		return
	}
	obj := identObj(w.pass, expr)
	if obj == nil {
		return
	}
	v := env[obj]
	if v == nil || !v.fromGet {
		return
	}
	if v.state == psLive || v.state == psMaybe {
		w.reportf(expr.Pos(),
			"pooled record %s escapes into %s while pool-owned: it will keep mutating after the pool recycles it; clone it through the pool-less path or annotate the audited hand-off with //availlint:allow poolsafety",
			obj.Name(), into)
		v.state = psEscaped
	}
}
