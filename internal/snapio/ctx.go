package snapio

import (
	"cmp"
	"reflect"
	"runtime"
	"slices"
	"time"

	"press/internal/sim"
)

// PendingEvent mirrors one pending kernel event: its firing identity
// plus the callback/argument the owner recognizes it by.
type PendingEvent struct {
	At  time.Duration
	Seq uint64
	AFn func(any)
	Arg any
}

// FnPtr returns the code pointer of a function value, the identity
// subsystems claim pending events by.
func FnPtr(fn any) uintptr {
	if fn == nil {
		return 0
	}
	return reflect.ValueOf(fn).Pointer()
}

// FnName names a function value for unclaimed-event diagnostics.
func FnName(fn any) string {
	p := FnPtr(fn)
	if p == 0 {
		return "<nil>"
	}
	if f := runtime.FuncForPC(p); f != nil {
		return f.Name()
	}
	return "<unknown>"
}

// Ctx is the context threaded through every subsystem's snapshot walk.
// Exactly one of Enc/Dec is set, and a walk is one function that both
// directions run: each primitive below moves one value between the
// stream and the place it lives, so a section's byte layout is written
// down once. Work only a load does (constructing records, re-arming
// events, re-attaching handlers) sits in `if !x.Saving()` blocks beside
// the field it belongs to.
type Ctx struct {
	Enc *Encoder
	Dec *Decoder

	// World is what the sections of one world share beyond the stream. It
	// is a pointer, and Ctx three words, because a context is also made
	// for every lone message (MsgCodec.Encode/Decode, once per livenet
	// frame), and that one points at the codec's own.
	*World
}

// World is the part of a walk's context that outlives any one section.
type World struct {
	// Sim is the kernel whose pending events a save claims and a load
	// re-arms at the (time, sequence) slots they held.
	Sim *sim.Sim

	// Conns maps stream-connection objects (simnet halves) to stable
	// ids. References are written wherever they occur; the connection
	// state table itself is one of the last sections, so on load the
	// table creates blank halves on first reference and fills them when
	// the table section arrives.
	Conns *RefTable

	// Owners maps callback-owner records (machine dial records, server
	// disk operations, workload requests, ...) to stable ids. Owner
	// sections Define their objects before the sections that reference
	// them resolve ids, so Owners needs no blank factory.
	Owners *RefTable

	// Msgs describes the wire messages appearing in connection buffers,
	// in-flight packets, mailboxes and peer send queues.
	Msgs *MsgCodec

	// pending is the save-side table of every pending kernel event in
	// firing order, afn their dispatch code pointers; claimed marks the
	// ones some walk recognized and serialized. Unclaimed events at the
	// end of a save are a hard error.
	pending []PendingEvent
	afn     []uintptr
	claimed []bool
}

// Saving reports the direction: true while writing a snapshot.
func (x *Ctx) Saving() bool { return x.Enc != nil }

// Bool moves a boolean.
func (x *Ctx) Bool(v *bool) {
	if x.Enc != nil {
		x.Enc.Bool(*v)
	} else {
		*v = x.Dec.Bool()
	}
}

// U64 moves an unsigned varint.
func (x *Ctx) U64(v *uint64) {
	if x.Enc != nil {
		x.Enc.U64(*v)
	} else {
		*v = x.Dec.U64()
	}
}

// F64 moves a float64 bit pattern.
func (x *Ctx) F64(v *float64) {
	if x.Enc != nil {
		x.Enc.F64(*v)
	} else {
		*v = x.Dec.F64()
	}
}

// Str moves a length-prefixed string.
func (x *Ctx) Str(v *string) {
	if x.Enc != nil {
		x.Enc.Str(*v)
	} else {
		*v = x.Dec.Str()
	}
}

type integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// Int moves any integer-kinded value (ids, durations, enums, counters)
// as a signed varint. Loading refuses a value T cannot hold.
func Int[T integer](x *Ctx, v *T) {
	if x.Enc != nil {
		x.Enc.I64(int64(*v))
		return
	}
	n := x.Dec.I64()
	if *v = T(n); int64(*v) != n {
		Failf("integer %d out of range for %T", n, *v)
	}
}

// Uint moves a narrow unsigned value as an unsigned varint. Loading
// refuses a value T cannot hold.
func Uint[T integer](x *Ctx, v *T) {
	if x.Enc != nil {
		x.Enc.U64(uint64(*v))
		return
	}
	n := x.Dec.U64()
	if *v = T(n); uint64(*v) != n {
		Failf("integer %d out of range for %T", n, *v)
	}
}

// Len moves an element count: saving writes n; loading reads the count
// through Decoder.Count, which refuses one that is negative, above max,
// or larger than the stream could hold, before anything is allocated.
func (x *Ctx) Len(n, max int) int {
	if x.Enc != nil {
		x.Enc.Int(n)
		return n
	}
	return x.Dec.Count(max)
}

// resize moves a sequence's length; loading, it replaces *s with that
// many zero elements for the caller to fill (nil when there are none).
func resize[T any](x *Ctx, s *[]T, max int) {
	n := x.Len(len(*s), max)
	if !x.Saving() {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
}

// Slice moves a counted sequence: its length, then elem once per element
// in order.
func Slice[T any](x *Ctx, s *[]T, max int, elem func(*T)) {
	resize(x, s, max)
	for i := range *s {
		elem(&(*s)[i])
	}
}

// Ints moves a counted sequence of integer-kinded values.
func Ints[T integer](x *Ctx, s *[]T, max int) {
	resize(x, s, max)
	for i := range *s {
		Int(x, &(*s)[i])
	}
}

// Map moves a map as a counted sequence of entries in ascending key
// order, so the bytes do not depend on iteration order. entry moves one
// key and its value; loading inserts what it filled in.
func Map[K cmp.Ordered, V any](x *Ctx, m map[K]V, max int, entry func(*K, *V)) {
	var keys []K
	if x.Saving() {
		keys = make([]K, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
	}
	// One key and one value cell for the whole walk: entry is an indirect
	// call, so cells declared per iteration would each be a heap object.
	var k, zeroK K
	var v, zeroV V
	for i := range x.Len(len(keys), max) {
		k, v = zeroK, zeroV
		if x.Saving() {
			k, v = keys[i], m[keys[i]]
		}
		entry(&k, &v)
		if !x.Saving() {
			m[k] = v
		}
	}
}

// Conn moves a connection reference (see Ctx.Conns); a nil reference is
// id 0. A typed nil must not enter the table (it would be assigned an id
// and the conn-table walk would then visit it), which the comparison
// against T's zero value sees to.
func Conn[T comparable](x *Ctx, v *T) {
	var zero T
	if x.Saving() {
		var id uint64
		if *v != zero {
			id = x.Conns.Ref(*v)
		}
		x.Enc.U64(id)
		return
	}
	id := x.Dec.U64()
	*v = zero
	if obj := x.Conns.Obj(id); obj != nil {
		tv, ok := obj.(T)
		if !ok {
			Failf("conn ref %d is a %T, not a %T", id, obj, zero)
		}
		*v = tv
	}
}

// OptConn moves a connection reference that says first whether it is
// there at all.
func OptConn[T comparable](x *Ctx, v *T) {
	var zero T
	has := *v != zero
	x.Bool(&has)
	if !has {
		*v = zero
		return
	}
	if Conn(x, v); *v == zero {
		Failf("conn ref 0 where a connection was promised")
	}
}

// Define moves the id of obj, an owner record the running section
// describes: saving assigns it, loading registers the record the section
// just built under the id the stream carries.
func (x *Ctx) Define(obj any) {
	if x.Saving() {
		x.Enc.U64(x.Owners.Ref(obj))
	} else {
		x.Owners.Put(x.Dec.U64(), obj)
	}
}

// Owner moves a reference to an owner record an earlier section defined,
// held as the interface T its holder calls it through. what names the
// referencing operation when the save finds it without an owner or with
// one no section described. An owner whose process incarnation has died —
// it says so through OwnerGone — is described by no section any more: it
// travels as id 0 and loads as gone, whose methods do nothing (nil where
// owners do not die; id 0 is then refused).
func Owner[T any](x *Ctx, owner *T, gone any, what string) {
	if !x.Saving() {
		ref := x.Owners.Obj(x.Dec.U64())
		if ref == nil {
			ref = gone
		}
		var ok bool
		if *owner, ok = ref.(T); !ok {
			Failf("%s: owner %T cannot take its callback", what, ref)
		}
		return
	}
	ref := any(*owner)
	if ref == nil {
		Failf("%s has no owner", what)
	}
	if g, ok := ref.(interface{ OwnerGone() bool }); ok && g.OwnerGone() {
		x.Enc.U64(0)
		return
	}
	id, ok := x.Owners.Lookup(ref)
	if !ok {
		Failf("%s owner %T not registered in snapshot", what, ref)
	}
	x.Enc.U64(id)
}

// Msg moves one wire message (possibly nil) held in a field of static
// type M — cnet.Message or a concrete message pointer.
func Msg[M any](x *Ctx, m *M) {
	if x.Saving() {
		x.Msgs.move(x, *m)
		return
	}
	var zero M
	*m = zero
	if a := x.Msgs.move(x, nil); a != nil {
		v, ok := a.(M)
		if !ok {
			Failf("msg codec: decoded a %T where a %T belongs", a, zero)
		}
		*m = v
	}
}

// CapturePending installs the table of x.Sim's pending events that a
// save's walks claim from.
func (x *Ctx) CapturePending() {
	n := x.Sim.Pending()
	x.pending, x.afn = make([]PendingEvent, 0, n), make([]uintptr, 0, n)
	x.Sim.VisitPending(func(at time.Duration, seq uint64, afn func(any), arg any) {
		x.pending = append(x.pending, PendingEvent{At: at, Seq: seq, AFn: afn, Arg: arg})
		x.afn = append(x.afn, FnPtr(afn))
	})
	x.claimed = make([]bool, len(x.pending))
}

// Claim claims, in firing order, every unclaimed pending event that
// dispatches through afn with an argument keep accepts (nil accepts
// all). It is the save half of a pending-event section and returns nil
// when loading.
func Claim[T any](x *Ctx, afn func(any), keep func(*T) bool) []PendingEvent {
	if !x.Saving() {
		return nil
	}
	var out []PendingEvent
	ptr := FnPtr(afn)
	for i, ev := range x.pending {
		if x.claimed[i] || x.afn[i] != ptr {
			continue
		}
		if keep == nil || keep(ev.Arg.(*T)) {
			x.claimed[i] = true
			out = append(out, ev)
		}
	}
	return out
}

// Slot moves an event's firing identity, its (time, sequence) pair.
func (x *Ctx) Slot(ev *PendingEvent) {
	Int(x, &ev.At)
	x.U64(&ev.Seq)
}

// Pending moves the pending events that dispatch through afn (and that
// keep accepts): a count, then per event its slot followed by whatever
// walk moves of its argument record. Saving claims them and hands walk
// each argument; loading hands walk nil, and re-arms afn at the saved
// slot with the record walk built and returned.
func Pending[T any](x *Ctx, afn func(any), max int, keep func(*T) bool, walk func(*T) *T) {
	evs := Claim(x, afn, keep)
	for i := range x.Len(len(evs), max) {
		var ev PendingEvent
		var arg *T
		if x.Saving() {
			ev, arg = evs[i], evs[i].Arg.(*T)
		}
		x.Slot(&ev)
		arg = walk(arg)
		if !x.Saving() {
			x.Sim.RestoreAtArg(ev.At, ev.Seq, afn, arg)
		}
	}
}

// Event moves the event, if any, pending through afn with arg: whether
// there is one, then its slot. Saving claims it; loading re-arms afn(arg)
// at the slot and returns the handle, the inert zero handle when nothing
// was pending (and always when saving).
func Event[T any](x *Ctx, afn func(any), arg *T) sim.Timer {
	evs := Claim(x, afn, func(p *T) bool { return p == arg })
	if len(evs) > 1 {
		Failf("%d events pending through %s for one record", len(evs), FnName(afn))
	}
	var ev PendingEvent
	ok := len(evs) == 1
	if ok {
		ev = evs[0]
	}
	if x.Bool(&ok); !ok {
		return sim.Timer{}
	}
	x.Slot(&ev)
	if x.Saving() {
		return sim.Timer{}
	}
	return x.Sim.RestoreAtArg(ev.At, ev.Seq, afn, arg)
}

// Unclaimed returns the pending events no walk claimed.
func (x *Ctx) Unclaimed() []PendingEvent {
	var out []PendingEvent
	for i, ev := range x.pending {
		if !x.claimed[i] {
			out = append(out, ev)
		}
	}
	return out
}

// RefTable assigns stable small-integer ids to objects during a save
// and resolves them back during a load. Id 0 is reserved for nil.
type RefTable struct {
	ids   map[any]uint64
	objs  map[uint64]any
	list  []any // save side: objects in id order (id i+1 at index i)
	next  uint64
	blank func() any // load side: factory for forward references
}

// NewRefTable returns an empty table. blank, when non-nil, constructs a
// placeholder object for ids referenced before their defining section
// loads (load side only).
func NewRefTable(blank func() any) *RefTable {
	return &RefTable{ids: map[any]uint64{}, objs: map[uint64]any{}, next: 1, blank: blank}
}

// Ref returns the id for obj, assigning the next one on first
// encounter. nil maps to 0.
func (t *RefTable) Ref(obj any) uint64 {
	if obj == nil {
		return 0
	}
	if id, ok := t.ids[obj]; ok {
		return id
	}
	id := t.next
	t.next++
	t.ids[obj] = id
	t.list = append(t.list, obj)
	return id
}

// Assigned returns the save-side objects in id order. Sections that
// serialize a table of referenced objects (the connection-state table)
// iterate it with a growing cursor: encoding one object may register
// more.
func (t *RefTable) Assigned() []any { return t.list }

// Lookup returns obj's id without assigning one. A value that cannot be
// a map key (a closure adaptor standing in for an owner record) was never
// assigned one.
func (t *RefTable) Lookup(obj any) (uint64, bool) {
	if !reflect.TypeOf(obj).Comparable() {
		return 0, false
	}
	id, ok := t.ids[obj]
	return id, ok
}

// Put registers obj under id on the load side. Registering over a blank
// is an error — fill the blank instead; Obj hands it out.
func (t *RefTable) Put(id uint64, obj any) {
	if id == 0 {
		Failf("ref table: Put with id 0")
	}
	if _, ok := t.objs[id]; ok {
		Failf("ref table: duplicate id %d", id)
	}
	t.objs[id] = obj
}

// Obj resolves id on the load side, creating a blank placeholder if the
// defining section has not loaded yet. id 0 resolves to nil.
func (t *RefTable) Obj(id uint64) any {
	if id == 0 {
		return nil
	}
	if obj, ok := t.objs[id]; ok {
		return obj
	}
	if t.blank == nil {
		Failf("ref table: unresolved forward reference %d", id)
	}
	obj := t.blank()
	t.objs[id] = obj
	return obj
}

// MsgCodec describes wire messages by registered type name. A message
// has one description, its walk, which snapshots and livenet's sockets,
// stream and datagram, all run.
type MsgCodec struct {
	byName map[string]*msgType
	byType map[reflect.Type]*msgType
	world  *World // all a lone message's context needs: this codec
}

type msgType struct {
	name string
	zero any
	walk func(*Ctx, any) any
}

// NewMsgCodec returns an empty codec.
func NewMsgCodec() *MsgCodec {
	c := &MsgCodec{byName: map[string]*msgType{}, byType: map[reflect.Type]*msgType{}}
	c.world = &World{Msgs: c}
	return c
}

// Register adds a message type under name. zero is the zero value of the
// concrete type — a nil pointer or an empty struct — and what walk is
// handed when decoding; walk moves the message's fields, allocating the
// record behind a nil pointer first, and returns the message.
func (c *MsgCodec) Register(name string, zero any, walk func(x *Ctx, m any) any) {
	t := reflect.TypeOf(zero)
	if _, dup := c.byType[t]; dup {
		Failf("msg codec: duplicate type %v", t)
	}
	if _, dup := c.byName[name]; dup {
		Failf("msg codec: duplicate name %q", name)
	}
	mt := &msgType{name: name, zero: zero, walk: walk}
	c.byType[t], c.byName[name] = mt, mt
}

// Names lists the registered message names in sorted order: what a test
// enumerates to show that every message the codec knows is covered.
func (c *MsgCodec) Names() []string {
	names := make([]string, 0, len(c.byName))
	for name := range c.byName {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// Encode writes one message (nil allowed).
func (c *MsgCodec) Encode(e *Encoder, m any) {
	e.msg = Ctx{Enc: e, World: c.world}
	c.move(&e.msg, m)
}

// Decode reads one message (possibly nil).
func (c *MsgCodec) Decode(d *Decoder) any {
	d.msg = Ctx{Dec: d, World: c.world}
	return c.move(&d.msg, nil)
}

// move is the one layout of a message on the stream: its registered name
// (empty for nil), then its walk. It returns the message: m when saving,
// the one it read when loading.
func (c *MsgCodec) move(x *Ctx, m any) any {
	var mt *msgType
	var name string
	if x.Saving() && m != nil {
		if mt = c.byType[reflect.TypeOf(m)]; mt == nil {
			Failf("msg codec: unregistered message type %T", m)
		}
		name = mt.name
	}
	if x.Str(&name); name == "" {
		return nil
	}
	if !x.Saving() {
		if mt = c.byName[name]; mt == nil {
			Failf("msg codec: unknown message type %q", name)
		}
		m = mt.zero
	}
	return mt.walk(x, m)
}
