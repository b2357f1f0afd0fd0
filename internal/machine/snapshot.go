package machine

import (
	"fmt"
	"slices"
	"time"

	"press/internal/clock"
	"press/internal/cnet"
	"press/internal/simnet"
	"press/internal/snapio"
)

// Snapshot support. A machine serializes its processes' control state —
// liveness, incarnation, hang/stall/charge flags, the mailbox, adopted
// connections, pending proc timers, dial records — but none of the
// component callbacks those entries dispatch into. Restore therefore
// runs in three steps:
//
//  1. SnapState, the one walk that also saves, reads the records and
//     rebuilds process flags and each live incarnation's Env (random
//     stream included), stashing everything that needs a callback in
//     procRestore scratch, and defines the dial records.
//  2. The component restores itself against the Env, re-registering its
//     handlers (Listen/BindDatagram), re-claiming its pending timers
//     (RestoreTimer), re-attaching handlers to its connections
//     (RestoreConn) and defining the records its dials answer to. Then
//     SnapDialOwners hands each live dial record its owner back.
//  3. FinishRestore resolves the stashed records against those
//     registrations: mailbox entries get their typed callbacks back,
//     adopted connections get close hooks and owner slots, and timers
//     nobody claimed — they belonged to dead incarnations — are re-armed
//     against a dead Env so they still occupy their exact kernel slot and
//     fire as no-ops.

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

// mailTag is a mailbox entry as the stream carries it: which kind of
// callback it dispatches, and the arguments that kind keeps.
type mailTag struct {
	kind   uint8
	c      cnet.Conn
	m      cnet.Message
	from   cnet.NodeID
	port   string
	err    error
	serial uint64
	dial   int // a dial result's record, as its index in Machine.dials
}

// procRestore is per-process scratch state between the machine's walk
// and FinishRestore.
type procRestore struct {
	timers       map[uint64]*restTimer
	mailTags     []mailTag
	mailTimers   map[uint64]bool
	mailTimerFns map[uint64]func()
	adopted      []simnet.StreamConn               // adopted conns in owner-slot order
	conns        []cnet.Conn                       // adopted conns, then mailbox-only (closed) conns
	handlers     map[cnet.Conn]cnet.StreamHandlers // component handlers by conn, from RestoreConn
	words        map[cnet.Conn]uint64              // every conn of conns, with the word its component wrote back (SetConnWord)
}

// own lists c among the restoring process's connections, once.
func (r *procRestore) own(c cnet.Conn) {
	if _, listed := r.words[c]; !listed {
		r.words[c] = 0
		r.conns = append(r.conns, c)
	}
}

// SnapState moves the machine. Saving claims pending proc timers and the
// charge wakeup from the kernel's pending table; loading reads the
// records into process flags and restore scratch — component restores run
// between this walk and FinishRestore.
func (m *Machine) SnapState(x *snapio.Ctx) {
	snapio.Int(x, &m.state)
	x.F64(&m.slow)
	if n := x.Len(len(m.order), 1<<8); n != len(m.order) {
		snapio.Failf("machine %d: snapshot has %d procs, world has %d", m.id, n, len(m.order))
	}
	for _, name := range m.order {
		got := name
		if x.Str(&got); got != name {
			snapio.Failf("machine %d: proc order mismatch (%q vs %q)", m.id, got, name)
		}
		p := m.procs[name]
		if x.Saving() && (len(p.pauseScratch) != 0 || p.rst != nil) {
			// What an event leaves behind it only while it runs.
			snapio.Failf("machine %d/%s: snapshot taken inside an event (%d conns mid-pause, restoring %v)",
				m.id, name, len(p.pauseScratch), p.rst != nil)
		}
		x.Bool(&p.alive)
		x.U64(&p.incarnation)
		x.Bool(&p.hung)
		x.Bool(&p.stalled)
		x.Bool(&p.running)
		x.U64(&p.timerSeq)
		if !x.Saving() {
			p.rst = &procRestore{
				timers:       map[uint64]*restTimer{},
				mailTimers:   map[uint64]bool{},
				mailTimerFns: map[uint64]func(){},
				handlers:     map[cnet.Conn]cnet.StreamHandlers{},
				words:        map[cnet.Conn]uint64{},
			}
		}

		resumes := 0
		snapio.Pending(x, procResume, 4, func(rr *resumeRec) bool { return rr == &p.resume }, func(*resumeRec) *resumeRec {
			if resumes++; resumes > 1 {
				snapio.Failf("machine %d/%s: more than one pending resume event", m.id, name)
			}
			if !x.Saving() {
				p.resume.p = p
			}
			x.U64(&p.resume.inc)
			return &p.resume
		})

		if p.alive {
			if !x.Saving() {
				p.env = newEnv(p, p.incarnation)
				p.env.rand = m.sim.NewRand(fmt.Sprintf("node%d/%s/%d", m.id, name, p.incarnation))
			}
			x.Rand(p.env.rand)
		} else if !x.Saving() {
			p.env = nil
		}

		// Pending proc timers travel by serial: the component that armed one
		// re-claims it (RestoreTimer) with the callback the stream cannot carry.
		timers := snapio.Claim(x, procTimerFire, func(r *timerRec) bool { return r.e.p == p })
		for i := range x.Len(len(timers), 1<<20) {
			var ev snapio.PendingEvent
			var serial uint64
			var live bool
			if x.Saving() {
				rec := timers[i].Arg.(*timerRec)
				ev, serial, live = timers[i], rec.serial, rec.e.live()
			}
			x.U64(&serial)
			x.Slot(&ev)
			x.Bool(&live)
			if !x.Saving() {
				p.rst.timers[serial] = &restTimer{at: ev.At, seq: ev.Seq, live: live}
			}
		}

		closes := 0
		for i := range x.Len(p.MailboxLen(), 1<<20) {
			if !p.alive { // kill empties it; there is no environment to resolve an entry against
				snapio.Failf("machine %d/%s: a dead process with a mailbox", m.id, name)
			}
			var t mailTag
			if x.Saving() {
				t = m.tagOf(name, &p.mailbox[p.head+i])
			}
			if t.snap(x); t.kind == tagClosed {
				closes++
			}
			if !x.Saving() {
				if t.kind == tagTimer {
					p.rst.mailTimers[t.serial] = true
				}
				p.rst.mailTags = append(p.rst.mailTags, t)
			}
		}

		if parked := len(p.closing) - p.closingHead; x.Saving() && closes != parked {
			// The parked records are not written: FinishRestore rebuilds one
			// per close entry, which is only right while that is what they are.
			snapio.Failf("machine %d/%s: %d closes in the mailbox, %d connections parked", m.id, name, closes, parked)
		}

		for i := range x.Len(len(p.conns), 1<<20) {
			if !p.alive {
				snapio.Failf("machine %d/%s: a dead process with connections", m.id, name)
			}
			var c simnet.StreamConn
			if x.Saving() {
				c = p.conns[i].c
			}
			if snapio.Conn(x, &c); c == nil {
				snapio.Failf("machine %d/%s: adopted conn %d is not a conn", m.id, name, i)
			}
			if !x.Saving() {
				p.rst.adopted = append(p.rst.adopted, c)
				p.rst.own(c)
			}
		}
		// Mailbox-only connections (typically closed ones awaiting their
		// OnClose dispatch) join the list after the adopted set so the
		// component can restore handlers on them too.
		if !x.Saving() {
			for _, t := range p.rst.mailTags {
				if t.c != nil {
					p.rst.own(t.c)
				}
			}
		}
	}

	// Dial records are owners the network's pending section refers to, and
	// a mailbox's dial results by index. A loaded record is built here, on
	// its live incarnation's environment or on a dead one's stand-in;
	// SnapDialOwners hands the live ones their owners back.
	for i := range x.Len(len(m.dials), 1<<20) {
		var dr *dialRec
		var proc string
		var live bool
		if x.Saving() {
			dr = m.dials[i]
			proc, live = dr.e.p.name, dr.e.live()
		} else {
			dr = m.dialFree.Get()
			dr.slot = len(m.dials)
			m.dials = append(m.dials, dr)
		}
		x.Define(dr)
		x.Str(&proc)
		if x.Bool(&live); !x.Saving() {
			p := m.procs[proc]
			if p == nil {
				snapio.Failf("machine %d: dial record for unknown proc %q", m.id, proc)
			}
			if dr.e = p.env; !live {
				dr.e = &Env{p: p}
			} else if !p.alive {
				snapio.Failf("machine %d: a live dial record of dead process %q", m.id, proc)
			}
		}
	}
}

// tagOf classifies a mailbox entry for the stream: its callback is rebuilt
// from the tag on restore.
func (m *Machine) tagOf(proc string, c *call) mailTag {
	if c.env == nil {
		snapio.Failf("machine %d/%s: mailbox entry without env", m.id, proc)
	}
	t := mailTag{c: c.c, m: c.m, from: c.from, port: c.port, err: c.err}
	switch {
	case !c.env.live():
		t.kind = tagDead
	case c.tr != nil:
		t.kind, t.serial = tagTimer, c.tr.serial
	case c.sfn != nil:
		t.kind = tagStream
	case c.dfn != nil:
		t.kind = tagDgram
	case c.dr != nil:
		t.kind, t.dial = tagDial, c.dr.slot
	case c.rfn != nil:
		t.kind = tagClosed
	case c.wfn != nil:
		t.kind = tagWritable
	default:
		snapio.Failf("machine %d/%s: empty mailbox entry", m.id, proc)
	}
	return t
}

// snap moves one mailbox entry: its tag, then what that kind carries.
func (t *mailTag) snap(x *snapio.Ctx) {
	snapio.Uint(x, &t.kind)
	switch t.kind {
	case tagDead:
	case tagTimer:
		x.U64(&t.serial)
	case tagStream:
		snapio.Conn(x, &t.c)
		snapio.Msg(x, &t.m)
	case tagDgram:
		x.Str(&t.port)
		snapio.Int(x, &t.from)
		snapio.Msg(x, &t.m)
	case tagDial:
		snapio.Int(x, &t.dial)
		snapio.Conn(x, &t.c)
		cnet.SnapErr(x, &t.err)
	case tagClosed:
		snapio.Conn(x, &t.c)
		cnet.SnapErr(x, &t.err)
	case tagWritable:
		snapio.Conn(x, &t.c)
	default:
		snapio.Failf("machine: unknown mailbox tag %d", t.kind)
	}
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
// live reports whether fn will still be called: not for a spent serial.
func (e *Env) RestoreTimer(serial uint64, fn func()) (t clock.Timer, live bool) {
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
		return procTimer{t: p.m.sim.RestoreAtArg(rt.at, rt.seq, procTimerFire, rec), serial: serial}, true
	}
	if p.rst.mailTimers[serial] {
		p.rst.mailTimerFns[serial] = fn
		return procTimer{serial: serial}, true
	}
	return procTimer{serial: serial}, false
}

// SnapTicker implements cnet.RestoreEnv: a native ticker travels as its
// stopped flag and, when a fire is pending or sits in the mailbox, that
// fire's serial — an ordinary proc timer, which a load re-claims.
func (e *Env) SnapTicker(x *snapio.Ctx, t *clock.Ticker, period time.Duration, fn func(), what string) {
	var pt *procTicker
	if x.Saving() {
		var ok bool
		if pt, ok = (*t).(*procTicker); !ok {
			snapio.Failf("%s ticker %T is not restorable", what, *t)
		}
		if pt.firing || pt.rearmed {
			snapio.Failf("%s ticker: snapshot taken inside its tick", what)
		}
	} else {
		pt = &procTicker{e: e, period: period, fn: fn}
		pt.fireFn = pt.fire
		*t = pt
	}
	x.Bool(&pt.stopped)
	armed := pt.serial != 0
	if x.Bool(&armed); !armed {
		return
	}
	if x.U64(&pt.serial); !x.Saving() {
		h, _ := e.RestoreTimer(pt.serial, pt.fireFn)
		pt.t = h.(procTimer).t
	}
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

// SnapDialOwners moves, for every live dial record, the component record
// it answers to. Those are defined by the processes' parts, which run
// after the machine sections, so this walk follows the parts and precedes
// FinishRestore, which asks the owners of results waiting in a mailbox for
// their connections' handlers.
func (m *Machine) SnapDialOwners(x *snapio.Ctx) {
	for _, dr := range m.dials {
		if dr.e.live() {
			snapio.Owner(x, &dr.owner, nil, "machine: dial")
		}
	}
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
	if _, own := p.rst.words[c]; !own {
		snapio.Failf("machine %d/%s: component restores a connection the process did not carry", p.m.id, p.name)
	}
	hr.RestoreHandlers(e.hooks.h)
	p.rst.handlers[c] = h
}

func noopStream(cnet.Conn, cnet.Message) {}

// FinishRestore resolves the stashed records against component
// registrations. Must run after every component of this machine has
// restored.
func (m *Machine) FinishRestore() {
	for _, name := range m.order {
		p := m.procs[name]
		r := p.rst
		if r == nil {
			snapio.Failf("machine %d/%s: FinishRestore without SnapState", m.id, name)
		}

		// A connection whose dial result is still in the mailbox was adopted
		// with the owner's handlers, and the owner has not seen it yet.
		for _, t := range r.mailTags {
			if t.kind != tagDial {
				continue
			}
			if t.dial < 0 || t.dial >= len(m.dials) || m.dials[t.dial].e != p.env {
				snapio.Failf("machine %d/%s: mailbox dial result names no live dial record of its process", m.id, name)
			}
			if t.c != nil {
				p.env.RestoreConn(t.c, m.dials[t.dial].owner.DialHandlers())
			}
		}

		for i, c := range r.adopted {
			h, ok := r.handlers[c]
			if !ok {
				snapio.Failf("machine %d/%s: adopted conn %d not restored by component", m.id, name, i)
			}
			c.SetOwnerSlot(i)
			p.conns = append(p.conns, connRec{c: c, h: h, word: r.words[c]})
			c.SetCloseHook(p.env.hooks.closed)
		}
		// A close waiting in the mailbox has its connection's record parked.
		for _, t := range r.mailTags {
			if t.kind == tagClosed {
				sc, ok := t.c.(simnet.StreamConn)
				if !ok {
					snapio.Failf("machine %d/%s: mailbox close entry names no conn", m.id, name)
				}
				p.closing = append(p.closing, connRec{c: sc, h: r.handlers[t.c], word: r.words[t.c]})
			}
		}

		serials := make([]uint64, 0, len(r.timers))
		for s := range r.timers {
			serials = append(serials, s)
		}
		slices.Sort(serials)
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
		p.rst = nil
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
		var h func(cnet.NodeID, cnet.Message)
		for i, port := range env.dgramPorts {
			if port == t.port {
				h = env.dgramH[i] // the last binding of a port is the one in force
			}
		}
		if h == nil {
			snapio.Failf("machine %d/%s: mailbox dgram entry for unbound port %q", m.id, p.name, t.port)
		}
		return call{dfn: h, env: env, from: t.from, m: t.m, port: t.port}
	case tagDial:
		return call{dr: m.dials[t.dial], env: env, c: t.c, err: t.err} // FinishRestore checked the index
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
