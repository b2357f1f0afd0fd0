package machine

import (
	"fmt"
	"sort"
	"time"

	"press/internal/clock"
	"press/internal/cnet"
	"press/internal/simnet"
	"press/internal/snapio"
)

// Snapshot support. A machine serializes its processes' control state —
// liveness, incarnation, hang/stall/charge flags, the mailbox, adopted
// connections, pending proc timers, in-flight dials — but none of the
// component callbacks those entries dispatch into. Restore therefore
// runs in two passes:
//
//  1. LoadState reads the records and rebuilds process flags and each
//     live incarnation's Env (random stream included), stashing
//     everything that needs a callback in procRestore scratch.
//  2. The component restores itself against the Env, re-registering its
//     handlers (Listen/BindDatagram), re-claiming its pending timers
//     (RestoreTimer), and re-attaching handlers to its connections
//     (RestoreConn) and in-flight dials (RestoreDialer).
//  3. FinishRestore resolves the stashed records against those
//     registrations: mailbox entries get their typed callbacks back,
//     adopted connections get close hooks and owner slots, dial records
//     rejoin the registry, and timers nobody claimed — they belonged to
//     dead incarnations — are re-armed against a dead Env so they still
//     occupy their exact kernel slot and fire as no-ops.

// Mailbox entry tags.
const (
	tagDead     = 0 // entry whose incarnation died; dispatch is a no-op
	tagStream   = 1
	tagDgram    = 2
	tagDial     = 3
	tagClosed   = 4
	tagWritable = 5
	tagTimer    = 6
)

type restTimer struct {
	at       time.Duration
	seq      uint64
	live     bool
	consumed bool
}

type mailTag struct {
	kind   uint8
	c      cnet.Conn
	m      cnet.Message
	from   cnet.NodeID
	to     cnet.NodeID
	port   string
	err    error
	serial uint64
}

type dialKey struct {
	to   cnet.NodeID
	port string
}

type dialEndpoint struct {
	h      cnet.StreamHandlers
	result func(cnet.Conn, error)
}

type restDial struct {
	id   uint64
	proc string
	to   cnet.NodeID
	port string
	live bool
}

// procRestore is per-process scratch state between LoadState and
// FinishRestore.
type procRestore struct {
	timers       map[uint64]*restTimer
	mailTags     []mailTag
	mailTimers   map[uint64]bool
	mailTimerFns map[uint64]func()
	connRefs     []uint64
	conns        []cnet.Conn                       // adopted conns, then mailbox-only (closed) conns
	handlers     map[cnet.Conn]cnet.StreamHandlers // component handlers by conn, from RestoreConn
	dialers      map[dialKey]dialEndpoint
}

// SaveState serializes the machine. Pending proc timers and the charge
// wakeup are claimed from the kernel's pending table.
func (m *Machine) SaveState(ctx *snapio.Ctx) {
	e := ctx.Enc
	e.Int(int(m.state))
	e.F64(m.slow)
	e.Int(len(m.order))
	for _, name := range m.order {
		p := m.procs[name]
		e.Str(name)
		e.Bool(p.alive)
		e.U64(p.incarnation)
		e.Bool(p.hung)
		e.Bool(p.stalled)
		e.Bool(p.running)
		e.U64(p.timerSeq)

		resume := ctx.ClaimWhere(func(ev snapio.PendingEvent) bool {
			rr, ok := ev.Arg.(*resumeRec)
			return ok && rr == &p.resume
		})
		if len(resume) > 1 {
			snapio.Failf("machine %d/%s: %d pending resume events", m.id, name, len(resume))
		}
		e.Int(len(resume))
		for _, ev := range resume {
			e.Dur(ev.At)
			e.U64(ev.Seq)
			e.U64(ev.Arg.(*resumeRec).inc)
		}

		if p.alive {
			snapio.SaveRand(e, p.env.rand)
		}

		fire := snapio.FnPtr(procTimerFire)
		timers := ctx.ClaimWhere(func(ev snapio.PendingEvent) bool {
			if ev.AFn == nil || snapio.FnPtr(ev.AFn) != fire {
				return false
			}
			return ev.Arg.(*timerRec).e.p == p
		})
		e.Int(len(timers))
		for _, ev := range timers {
			rec := ev.Arg.(*timerRec)
			e.U64(rec.serial)
			e.Dur(ev.At)
			e.U64(ev.Seq)
			e.Bool(rec.e.live())
		}

		e.Int(p.MailboxLen())
		for i := p.head; i < len(p.mailbox); i++ {
			saveMailEntry(ctx, m, name, &p.mailbox[i])
		}

		e.Int(len(p.conns))
		for _, r := range p.conns {
			e.U64(ctx.Conns.Ref(r.c))
		}
	}

	e.Int(len(m.dials))
	for _, dr := range m.dials {
		e.U64(ctx.Owners.Ref(dr))
		e.Str(dr.e.p.name)
		e.I64(int64(dr.to))
		e.Str(dr.port)
		e.Bool(dr.e.live())
	}
}

func saveMailEntry(ctx *snapio.Ctx, m *Machine, proc string, c *call) {
	e := ctx.Enc
	if c.fn != nil {
		snapio.Failf("machine %d/%s: mailbox holds a raw closure (%s)", m.id, proc, snapio.FnName(c.fn))
	}
	if c.env == nil {
		snapio.Failf("machine %d/%s: mailbox entry without env", m.id, proc)
	}
	if !c.env.live() {
		e.U64(tagDead)
		return
	}
	switch {
	case c.tr != nil:
		e.U64(tagTimer)
		e.U64(c.tr.serial)
	case c.sfn != nil:
		e.U64(tagStream)
		e.U64(ctx.Conns.Ref(c.c))
		ctx.Msgs.Encode(e, c.m)
	case c.dfn != nil:
		e.U64(tagDgram)
		e.Str(c.port)
		e.I64(int64(c.from))
		ctx.Msgs.Encode(e, c.m)
	case c.rfn != nil && c.dial:
		e.U64(tagDial)
		e.I64(int64(c.to))
		e.Str(c.port)
		e.U64(ctx.Conns.Ref(c.c))
		e.U64(cnet.ErrCode(c.err))
	case c.rfn != nil:
		e.U64(tagClosed)
		e.U64(ctx.Conns.Ref(c.c))
		e.U64(cnet.ErrCode(c.err))
	case c.wfn != nil:
		e.U64(tagWritable)
		e.U64(ctx.Conns.Ref(c.c))
	default:
		snapio.Failf("machine %d/%s: empty mailbox entry", m.id, proc)
	}
}

// machineRestore holds machine-level in-flight dial records between
// LoadState and FinishRestore.
type machineRestore struct {
	dials []restDial
}

// LoadState reads the machine section into process flags and restore
// scratch. Component restores run between LoadState and FinishRestore.
func (m *Machine) LoadState(ctx *snapio.Ctx) {
	d := ctx.Dec
	m.state = State(d.Int())
	m.slow = d.F64()
	n := d.Count(1 << 8)
	if n != len(m.order) {
		snapio.Failf("machine %d: snapshot has %d procs, world has %d", m.id, n, len(m.order))
	}
	for _, name := range m.order {
		if got := d.Str(); got != name {
			snapio.Failf("machine %d: proc order mismatch (%q vs %q)", m.id, got, name)
		}
		p := m.procs[name]
		p.alive = d.Bool()
		p.incarnation = d.U64()
		p.hung = d.Bool()
		p.stalled = d.Bool()
		p.running = d.Bool()
		p.timerSeq = d.U64()
		p.rst = &procRestore{
			timers:       map[uint64]*restTimer{},
			mailTimers:   map[uint64]bool{},
			mailTimerFns: map[uint64]func(){},
			handlers:     map[cnet.Conn]cnet.StreamHandlers{},
			dialers:      map[dialKey]dialEndpoint{},
		}

		for k := d.Count(4); k > 0; k-- {
			at := d.Dur()
			seq := d.U64()
			p.resume.p, p.resume.inc = p, d.U64()
			m.sim.RestoreAtArg(at, seq, procResume, &p.resume)
		}

		if p.alive {
			p.env = newEnv(p, p.incarnation)
			p.env.rand = m.sim.NewRand(fmt.Sprintf("node%d/%s/%d", m.id, name, p.incarnation))
			snapio.LoadRand(d, p.env.rand)
		} else {
			p.env = nil
		}

		for k := d.Count(1 << 20); k > 0; k-- {
			serial := d.U64()
			rt := &restTimer{at: d.Dur(), seq: d.U64(), live: d.Bool()}
			p.rst.timers[serial] = rt
		}

		for k := d.Count(1 << 20); k > 0; k-- {
			t := loadMailEntry(ctx)
			if t.kind == tagTimer {
				p.rst.mailTimers[t.serial] = true
			}
			p.rst.mailTags = append(p.rst.mailTags, t)
		}

		for k := d.Count(1 << 20); k > 0; k-- {
			ref := d.U64()
			p.rst.connRefs = append(p.rst.connRefs, ref)
			c, ok := ctx.Conns.Obj(ref).(cnet.Conn)
			if !ok {
				snapio.Failf("machine %d/%s: conn ref %d is not a conn", m.id, name, ref)
			}
			p.rst.conns = append(p.rst.conns, c)
		}
		// Mailbox-only connections (typically closed ones awaiting their
		// OnClose dispatch) join the list after the adopted set so the
		// component can restore handlers on them too.
		for _, t := range p.rst.mailTags {
			if t.c == nil {
				continue
			}
			seen := false
			for _, c := range p.rst.conns {
				if c == t.c {
					seen = true
					break
				}
			}
			if !seen {
				p.rst.conns = append(p.rst.conns, t.c)
			}
		}
	}

	mr := &machineRestore{}
	for k := d.Count(1 << 20); k > 0; k-- {
		mr.dials = append(mr.dials, restDial{
			id:   d.U64(),
			proc: d.Str(),
			to:   cnet.NodeID(d.I64()),
			port: d.Str(),
			live: d.Bool(),
		})
	}
	m.rst = mr
}

func loadMailEntry(ctx *snapio.Ctx) mailTag {
	d := ctx.Dec
	var t mailTag
	t.kind = uint8(d.U64())
	switch t.kind {
	case tagDead:
	case tagTimer:
		t.serial = d.U64()
	case tagStream:
		t.c, _ = ctx.Conns.Obj(d.U64()).(cnet.Conn)
		t.m = ctx.Msgs.Decode(d)
	case tagDgram:
		t.port = d.Str()
		t.from = cnet.NodeID(d.I64())
		t.m = ctx.Msgs.Decode(d)
	case tagDial:
		t.to = cnet.NodeID(d.I64())
		t.port = d.Str()
		t.c, _ = ctx.Conns.Obj(d.U64()).(cnet.Conn)
		t.err = cnet.ErrFromCode(d.U64())
	case tagClosed:
		t.c, _ = ctx.Conns.Obj(d.U64()).(cnet.Conn)
		t.err = cnet.ErrFromCode(d.U64())
	case tagWritable:
		t.c, _ = ctx.Conns.Obj(d.U64()).(cnet.Conn)
	default:
		snapio.Failf("machine: unknown mailbox tag %d", t.kind)
	}
	return t
}

// RestoreEnv returns the restored live environment of the named process
// (nil when the process is dead), for component reconstruction.
func (m *Machine) RestoreEnv(name string) *Env {
	p := m.procs[name]
	if p == nil {
		return nil
	}
	return p.env
}

// RestoreTimer re-claims a pending proc-clock timer by serial: the
// component supplies the callback the serialized snapshot could not
// carry. Pending timers are re-armed at their exact kernel slot; a
// serial whose fire already sits in the mailbox registers the callback
// for FinishRestore and returns an inert handle (Stop reports false,
// matching a post-fire handle); a spent serial returns an inert handle.
func (e *Env) RestoreTimer(serial uint64, fn func()) clock.Timer {
	p := e.p
	if p.rst == nil {
		snapio.Failf("machine %d/%s: RestoreTimer outside restore", p.m.id, p.name)
	}
	if rt := p.rst.timers[serial]; rt != nil && !rt.consumed {
		rt.consumed = true
		if !rt.live {
			snapio.Failf("machine %d/%s: component claimed dead timer %d", p.m.id, p.name, serial)
		}
		rec := p.m.timerFree.Get()
		rec.e, rec.fn, rec.serial = e, fn, serial
		return procTimer{t: p.m.sim.RestoreAtArg(rt.at, rt.seq, procTimerFire, rec), serial: serial}
	}
	if p.rst.mailTimers[serial] {
		p.rst.mailTimerFns[serial] = fn
	}
	return procTimer{serial: serial}
}

// RestoreTicker rebuilds an unarmed native ticker from snapshot state.
// The caller re-claims the ticker's pending fire (if one was saved)
// through RestoreTimer with the ticker's FireFunc and hands the handle
// to AdoptTimer — the same protocol clock.RestoreFuncTicker uses.
func (e *Env) RestoreTicker(period time.Duration, fn func(), stopped bool) clock.Ticker {
	if fn == nil {
		panic("clock: nil ticker function")
	}
	t := &procTicker{e: e, period: period, fn: fn, stopped: stopped}
	t.fireFn = t.fire
	return t
}

// RestoreConnList returns every connection the restoring process
// references in the snapshot: its adopted connections in owner-slot
// order, then connections appearing only in mailbox entries (closed
// ones awaiting OnClose). The component must RestoreConn each of them.
func (e *Env) RestoreConnList() []cnet.Conn {
	p := e.p
	if p.rst == nil {
		snapio.Failf("machine %d/%s: RestoreConnList outside restore", p.m.id, p.name)
	}
	return p.rst.conns
}

// RestoreDialer registers the endpoint callbacks for an in-flight dial
// (or a dial result already sitting in the mailbox) to (to, port).
func (e *Env) RestoreDialer(to cnet.NodeID, port string, h cnet.StreamHandlers, result func(cnet.Conn, error)) {
	p := e.p
	if p.rst == nil {
		snapio.Failf("machine %d/%s: RestoreDialer outside restore", p.m.id, p.name)
	}
	p.rst.dialers[dialKey{to, port}] = dialEndpoint{h: h, result: result}
}

// RestoreConn re-attaches the component's handlers to a restored
// connection: the half gets the incarnation's mailbox wrappers back, the
// component's own handlers wait for FinishRestore, which rebuilds the
// record (owner slot, close hook) of every connection in the process's
// saved conn list. Closed connections still referenced by the component
// (a pending OnClose in the mailbox) only need the handlers for mailbox
// resolution.
func (e *Env) RestoreConn(c cnet.Conn, h cnet.StreamHandlers) {
	p := e.p
	if p.rst == nil {
		snapio.Failf("machine %d/%s: RestoreConn outside restore", p.m.id, p.name)
	}
	hr, ok := c.(simnet.HandlerRestorer)
	if !ok {
		snapio.Failf("machine %d/%s: conn %T cannot restore handlers", p.m.id, p.name, c)
	}
	hr.RestoreHandlers(e.hooks.h)
	p.rst.handlers[c] = h
}

func noopStream(cnet.Conn, cnet.Message) {}

// FinishRestore resolves the stashed records against component
// registrations. Must run after every component of this machine has
// restored.
func (m *Machine) FinishRestore(ctx *snapio.Ctx) {
	for _, name := range m.order {
		p := m.procs[name]
		r := p.rst
		if r == nil {
			snapio.Failf("machine %d/%s: FinishRestore without LoadState", m.id, name)
		}

		for i, ref := range r.connRefs {
			c, ok := ctx.Conns.Obj(ref).(simnet.StreamConn)
			if !ok {
				snapio.Failf("machine %d/%s: conn ref %d is not a stream conn", m.id, name, ref)
			}
			h, ok := r.handlers[c]
			if !ok {
				snapio.Failf("machine %d/%s: adopted conn %d not restored by component", m.id, name, ref)
			}
			c.SetOwnerSlot(i)
			p.conns = append(p.conns, connRec{c: c, h: h})
			c.SetCloseHook(p.env.hooks.closed)
		}

		serials := make([]uint64, 0, len(r.timers))
		for s := range r.timers {
			serials = append(serials, s)
		}
		sort.Slice(serials, func(a, b int) bool { return serials[a] < serials[b] })
		for _, s := range serials {
			rt := r.timers[s]
			if rt.consumed {
				continue
			}
			if rt.live {
				snapio.Failf("machine %d/%s: live pending timer %d unclaimed by component", m.id, name, s)
			}
			rec := m.timerFree.Get()
			rec.e, rec.serial = &Env{p: p}, s
			m.sim.RestoreAtArg(rt.at, rt.seq, procTimerFire, rec)
		}

		for _, t := range r.mailTags {
			p.mailbox = append(p.mailbox, m.resolveMailEntry(p, t))
		}
		p.head = 0
	}

	mr := m.rst
	if mr == nil {
		snapio.Failf("machine %d: FinishRestore without LoadState", m.id)
	}
	m.rst = nil
	for _, rd := range mr.dials {
		p := m.procs[rd.proc]
		if p == nil {
			snapio.Failf("machine %d: dial record for unknown proc %q", m.id, rd.proc)
		}
		var env *Env
		dr := m.getDial()
		if rd.live {
			env = p.env
			ep, ok := p.rst.dialers[dialKey{rd.to, rd.port}]
			if !ok {
				snapio.Failf("machine %d/%s: in-flight dial to %d port %q unclaimed by component", m.id, rd.proc, rd.to, rd.port)
			}
			dr.h, dr.result = ep.h, ep.result
		} else {
			env = &Env{p: p}
		}
		dr.e, dr.to, dr.port = env, rd.to, rd.port
		dr.slot = len(m.dials)
		m.dials = append(m.dials, dr)
		ctx.Owners.Put(rd.id, dr)
	}

	for _, name := range m.order {
		m.procs[name].rst = nil
	}
}

func (m *Machine) resolveMailEntry(p *Proc, t mailTag) call {
	env := p.env
	switch t.kind {
	case tagDead:
		return call{sfn: noopStream, env: &Env{p: p}}
	case tagTimer:
		fn := p.rst.mailTimerFns[t.serial]
		if fn == nil {
			snapio.Failf("machine %d/%s: mailbox timer %d unclaimed by component", m.id, p.name, t.serial)
		}
		rec := m.timerFree.Get()
		rec.e, rec.fn, rec.serial = env, fn, t.serial
		return call{tr: rec, env: env}
	case tagStream:
		h := p.rst.handlers[t.c]
		if h.OnMessage == nil {
			snapio.Failf("machine %d/%s: mailbox stream entry unresolvable", m.id, p.name)
		}
		return call{sfn: h.OnMessage, env: env, c: t.c, m: t.m}
	case tagDgram:
		h := env.dgramH[t.port]
		if h == nil {
			snapio.Failf("machine %d/%s: mailbox dgram entry for unbound port %q", m.id, p.name, t.port)
		}
		return call{dfn: h, env: env, from: t.from, m: t.m, port: t.port}
	case tagDial:
		ep, ok := p.rst.dialers[dialKey{t.to, t.port}]
		if !ok {
			snapio.Failf("machine %d/%s: mailbox dial result for %d port %q unclaimed", m.id, p.name, t.to, t.port)
		}
		return call{rfn: ep.result, env: env, c: t.c, err: t.err, dial: true, to: t.to, port: t.port}
	case tagClosed:
		h := p.rst.handlers[t.c]
		if h.OnClose == nil {
			snapio.Failf("machine %d/%s: mailbox close entry unresolvable", m.id, p.name)
		}
		return call{rfn: h.OnClose, env: env, c: t.c, err: t.err}
	case tagWritable:
		h := p.rst.handlers[t.c]
		if h.OnWritable == nil {
			snapio.Failf("machine %d/%s: mailbox writable entry unresolvable", m.id, p.name)
		}
		return call{wfn: h.OnWritable, env: env, c: t.c}
	}
	snapio.Failf("machine: unknown mailbox tag %d", t.kind)
	return call{}
}

// RestoreDial implements simnet.DialRestorer for in-flight handshakes
// owned by this machine's dial records.
func (r *dialRec) RestoreDial() (cnet.StreamHandlers, func(cnet.Conn, error)) {
	return r.e.hooks.h, r.cb
}
