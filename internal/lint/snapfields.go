package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Snapfields checks snapshot field coverage. A snapshot section is one
// walk — a function taking a *snapio.Ctx that both saving and loading
// run — and a walk hands each piece of state to a primitive by address
// (x.Bool(&p.alive), snapio.Int(x, &r.now)). So a struct is snapshot
// state when some walk takes the address of one of its fields, and then
// every one of its fields must be mentioned somewhere in the package's
// walks. A field no walk touches is exactly the PR 6 bug class — someone
// adds a field, the snapshot silently omits it, and a forked campaign
// diverges from the uninterrupted run in a way no unit test notices.
// Audited exceptions (caches rebuilt by constructors, immutable config)
// are annotated on the field's line with
// //availlint:skipfield <name> <reason>. A field whose type cannot hold
// snapshot state at all (see wiring) needs neither.
//
// Mechanics: the analyzer seeds one call-graph walk at every declared
// function or method with a *snapio.Ctx parameter, closes it over
// same-package callees, and records every struct field mentioned in
// those bodies — selector expressions, keyed composite literals, and
// full positional literals all count, as does every hop of an
// embedded-field path — and, separately, every field whose address is
// taken there.
var Snapfields = &Analyzer{
	Name: "snapfields",
	Doc:  "require every field of a snapshot-checked struct to be covered by the package's snapshot walks (or carry //availlint:skipfield)",
	Run:  runSnapfields,
}

const snapioPath = "press/internal/snapio"

// wiring reports whether a field of type t cannot hold snapshot state,
// whatever it is called: code (a func, a struct of funcs such as
// cnet.StreamHandlers, a pointer to one such as the simnet.Router an owner
// shares among its connection ends, a map or slice of either, or a slice
// of funcs each beside the string it is registered under, which is such a
// map written flat — a restored component binds its handlers and
// subscribes again), a record free list (cnet.MsgPool: an empty pool
// behaves as a full one), or a backlink to the kernel or the event log
// (*sim.Sim, *metrics.Log: the restored world is built over its own).
func wiring(t types.Type) bool {
	switch c := t.Underlying().(type) {
	case *types.Map:
		return funcsOnly(c.Elem())
	case *types.Slice:
		return funcsOnly(c.Elem()) || keyedFuncs(c.Elem())
	case *types.Pointer:
		if funcsOnly(c.Elem()) {
			return true
		}
	}
	if funcsOnly(t) {
		return true
	}
	_, ptr := t.(*types.Pointer)
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case "press/internal/cnet.MsgPool":
		return !ptr
	case "press/internal/sim.Sim", "press/internal/metrics.Log":
		return ptr
	}
	return false
}

// funcsOnly reports whether t is a func or a struct made only of them.
// Structs nest by value, so this terminates.
func funcsOnly(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Signature:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !funcsOnly(u.Field(i).Type()) {
				return false
			}
		}
		return u.NumFields() > 0
	}
	return false
}

// keyedFuncs reports whether t is one entry of a map from string to code
// written as a struct: funcs and the string that names them, nothing else.
func keyedFuncs(t types.Type) bool {
	u, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	funcs, keys := 0, 0
	for i := 0; i < u.NumFields(); i++ {
		ft := u.Field(i).Type()
		if b, ok := ft.Underlying().(*types.Basic); ok && b.Kind() == types.String {
			keys++
		} else if funcsOnly(ft) {
			funcs++
		} else {
			return false
		}
	}
	return funcs > 0 && keys == 1
}

// hasCtxParam reports whether sig takes a *snapio.Ctx: the mark of a
// snapshot walk.
func hasCtxParam(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		ptr, ok := sig.Params().At(i).Type().(*types.Pointer)
		if !ok {
			continue
		}
		named, ok := ptr.Elem().(*types.Named)
		if ok && named.Obj().Name() == "Ctx" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == snapioPath {
			return true
		}
	}
	return false
}

func runSnapfields(pass *Pass) {
	// The snapio package is the codec itself: its primitives move foreign
	// state, not snapshot structs of their own.
	if pass.PkgPath == snapioPath {
		return
	}

	// Index package-level function/method declarations by their object,
	// for same-package call-graph closure, and seed the closure at the
	// walks.
	decls := map[*types.Func]*ast.FuncDecl{}
	var seeds []*types.Func
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
				if hasCtxParam(fn.Type().(*types.Signature)) {
					seeds = append(seeds, fn)
				}
			}
		}
	}
	if len(seeds) == 0 {
		return // package does not participate in the snapshot engine
	}
	mentions, moved := closureMentions(pass, decls, seeds)

	// Check the package-level named struct types a walk moves a field of.
	// scope.Names() is sorted, so findings come out in a stable order.
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		checked := false
		for i := 0; i < st.NumFields() && !checked; i++ {
			checked = moved[st.Field(i).Pos()]
		}
		if !checked {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !mentions[f.Pos()] && !wiring(f.Type()) && !pass.SkipfieldAt(f.Pos(), f.Name()) {
				pass.Reportf(f.Pos(),
					"field %s of snapshot type %s is missing from the snapshot walk: forked campaigns will silently diverge from the uninterrupted run; move it in the walk or annotate //availlint:skipfield %s <reason>",
					f.Name(), name, f.Name())
			}
		}
	}
}

// namedOf unwraps pointers to the receiver's named type.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// closureMentions walks the bodies of seeds plus every same-package
// function they transitively call, and returns the set of struct fields
// mentioned and the subset whose address is taken, keyed by the field's
// declaration position. (Positions, not objects: fields of generic
// instantiations are fresh objects per instantiation but share the
// declaration site.)
func closureMentions(pass *Pass, decls map[*types.Func]*ast.FuncDecl, seeds []*types.Func) (mentions, moved map[token.Pos]bool) {
	mentions, moved = map[token.Pos]bool{}, map[token.Pos]bool{}
	// fieldPath marks every hop of a (possibly embedded) field selection
	// as mentioned and returns the field it ends at.
	fieldPath := func(n *ast.SelectorExpr) *types.Var {
		sel, ok := pass.Info.Selections[n]
		if !ok || sel.Kind() != types.FieldVal {
			return nil
		}
		var f *types.Var
		t := sel.Recv()
		for _, idx := range sel.Index() {
			st, ok := deref(t).Underlying().(*types.Struct)
			if !ok {
				break
			}
			f = st.Field(idx)
			mentions[f.Pos()] = true
			t = f.Type()
		}
		return f
	}
	visited := map[*types.Func]bool{}
	queue := append([]*types.Func(nil), seeds...)
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if visited[fn] {
			continue
		}
		visited[fn] = true
		fd := decls[fn]
		if fd == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				fieldPath(n)
			case *ast.UnaryExpr:
				// &v.f, &v.f[i], &(*v.f)[i]: the field a walk hands to a primitive.
				if n.Op != token.AND {
					return true
				}
				for e := n.X; e != nil; {
					switch x := e.(type) {
					case *ast.ParenExpr:
						e = x.X
					case *ast.StarExpr:
						e = x.X
					case *ast.IndexExpr:
						e = x.X
					case *ast.SelectorExpr:
						if f := fieldPath(x); f != nil {
							moved[f.Pos()] = true
						}
						e = nil
					default:
						e = nil
					}
				}
			case *ast.CompositeLit:
				tv, ok := pass.Info.Types[n]
				if !ok {
					return true
				}
				st, ok := deref(tv.Type).Underlying().(*types.Struct)
				if !ok {
					return true
				}
				if len(n.Elts) == 0 {
					return true
				}
				if _, keyed := n.Elts[0].(*ast.KeyValueExpr); keyed {
					for _, elt := range n.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						if id, ok := kv.Key.(*ast.Ident); ok {
							if f, ok := pass.Info.Uses[id].(*types.Var); ok {
								mentions[f.Pos()] = true
							}
						}
					}
				} else {
					// Positional literal: every field is initialized.
					for i := 0; i < st.NumFields(); i++ {
						mentions[st.Field(i).Pos()] = true
					}
				}
			case *ast.CallExpr:
				if callee := calleeFunc(pass, n); callee != nil && callee.Pkg() == pass.Pkg && !visited[callee] {
					queue = append(queue, callee)
				}
			}
			return true
		})
	}
	return mentions, moved
}

// deref unwraps one level of pointer.
func deref(t types.Type) types.Type {
	if ptr, ok := t.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}
