package snapio

import (
	"reflect"
	"runtime"
	"sort"
	"time"
)

// PendingEvent mirrors one pending kernel event during a save: its
// firing identity plus the callback/argument the owner uses to
// recognize it.
type PendingEvent struct {
	At  time.Duration
	Seq uint64
	AFn func(any)
	Arg any
	Fn  func()
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

// Ctx is the shared save/load context threaded through every
// subsystem's SaveState/LoadState. Exactly one of Enc/Dec is set.
type Ctx struct {
	Enc *Encoder
	Dec *Decoder

	// Conns maps stream-connection objects (simnet halves) to stable
	// ids. References are written wherever they occur; the connection
	// state table itself is one of the last save sections, so on load
	// the table creates blank halves on first reference and fills them
	// when the table section arrives.
	Conns *RefTable

	// Owners maps callback-owner records (machine dial records, server
	// disk operations, workload requests, ...) to stable ids. Owner
	// sections register their objects before the sections that
	// reference them resolve ids, so Owners needs no blank factory.
	Owners *RefTable

	// Msgs encodes and decodes wire messages appearing in connection
	// buffers, in-flight packets, mailboxes and peer send queues.
	Msgs *MsgCodec

	// pending is the save-side table of every pending kernel event in
	// firing order; claimed marks the ones some subsystem recognized
	// and serialized. Unclaimed events at the end of a save are a hard
	// error.
	pending []PendingEvent
	claimed []bool
}

// SetPending installs the pending-event table a save walks.
func (c *Ctx) SetPending(evs []PendingEvent) {
	c.pending = evs
	c.claimed = make([]bool, len(evs))
}

// ClaimArg claims every pending event dispatching through afn and
// returns them in firing order together with their arguments. Owners
// that share a dispatch function filter by Arg afterwards.
func (c *Ctx) ClaimArg(afn func(any)) []PendingEvent {
	return c.ClaimWhere(func(ev PendingEvent) bool {
		return ev.AFn != nil && FnPtr(ev.AFn) == FnPtr(afn)
	})
}

// ClaimWhere claims every unclaimed pending event matching pred, in
// firing order.
func (c *Ctx) ClaimWhere(pred func(PendingEvent) bool) []PendingEvent {
	var out []PendingEvent
	for i, ev := range c.pending {
		if c.claimed[i] || !pred(ev) {
			continue
		}
		c.claimed[i] = true
		out = append(out, ev)
	}
	return out
}

// Unclaimed returns the pending events no subsystem claimed.
func (c *Ctx) Unclaimed() []PendingEvent {
	var out []PendingEvent
	for i, ev := range c.pending {
		if !c.claimed[i] {
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

// Lookup returns obj's id without assigning one.
func (t *RefTable) Lookup(obj any) (uint64, bool) {
	id, ok := t.ids[obj]
	return id, ok
}

// Count returns how many ids have been assigned so far.
func (t *RefTable) Count() int { return int(t.next) - 1 }

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

// MsgCodec serializes wire messages by registered type name.
type MsgCodec struct {
	byName map[string]func(*Decoder) any
	byType map[reflect.Type]msgEnc
}

type msgEnc struct {
	name string
	enc  func(*Encoder, any)
}

// NewMsgCodec returns an empty codec.
func NewMsgCodec() *MsgCodec {
	return &MsgCodec{byName: map[string]func(*Decoder) any{}, byType: map[reflect.Type]msgEnc{}}
}

// Register adds a message type under name. proto supplies the concrete
// type (a value or pointer of the type enc expects).
func (c *MsgCodec) Register(name string, proto any, enc func(*Encoder, any), dec func(*Decoder) any) {
	t := reflect.TypeOf(proto)
	if _, dup := c.byType[t]; dup {
		Failf("msg codec: duplicate type %v", t)
	}
	if _, dup := c.byName[name]; dup {
		Failf("msg codec: duplicate name %q", name)
	}
	c.byType[t] = msgEnc{name: name, enc: enc}
	c.byName[name] = dec
}

// Names lists the registered message names in sorted order: what a test
// enumerates to show that every message the codec knows is covered.
func (c *MsgCodec) Names() []string {
	names := make([]string, 0, len(c.byName))
	for name := range c.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Encode writes one message (nil allowed).
func (c *MsgCodec) Encode(e *Encoder, m any) {
	if m == nil {
		e.Str("")
		return
	}
	me, ok := c.byType[reflect.TypeOf(m)]
	if !ok {
		Failf("msg codec: unregistered message type %T", m)
	}
	e.Str(me.name)
	me.enc(e, m)
}

// Decode reads one message (possibly nil).
func (c *MsgCodec) Decode(d *Decoder) any {
	name := d.Str()
	if name == "" {
		return nil
	}
	dec, ok := c.byName[name]
	if !ok {
		Failf("msg codec: unknown message type %q", name)
	}
	return dec(d)
}
