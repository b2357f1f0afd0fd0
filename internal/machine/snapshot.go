package machine

import (
	"slices"
	"time"

	"press/internal/clock"
	"press/internal/cnet"
	"press/internal/simnet"
	"press/internal/snapio"
)

// Snapshot support. A machine serializes its processes' control state —
// liveness, incarnation, hang/stall flags, the charge, the mailbox, adopted
// connections, timer and dial records — but none of the component
// callbacks those entries dispatch into. Restore therefore runs in three
// steps:
//
//  1. SnapState, the one walk that also saves, reads the records and
//     rebuilds process flags and each live incarnation's Env (random
//     stream included), re-arms every pending timer at its kernel slot —
//     a dead incarnation's on a stand-in Env, where it fires as a no-op —
//     stashes the mailbox and connections in procRestore scratch, and
//     defines the timer and dial records.
//  2. The component restores itself against the Env, re-registering its
//     handlers (Listen/BindDatagram), re-attaching handlers to its
//     connections (RestoreConn) and defining the records its timers and
//     dials answer to. Then SnapOwners hands each live timer and dial
//     record its owner back.
//  3. FinishRestore resolves the stashed records against those
//     registrations: every connection end the process carried gets its
//     handlers back, and its own ends their router, word and owner slot;
//     mailbox entries get their records and port indexes back.

// mailTag is a mailbox entry as the stream carries it: which kind of
// callback it dispatches, and the arguments that kind keeps.
type mailTag struct {
	kind  uint8
	c     *simnet.End
	m     cnet.Message
	from  cnet.NodeID
	port  string
	err   error
	timer *timerRec // a timer fire's record, defined by the entry
	dial  int       // a dial result's record, as its index in Machine.dials
}

// procRestore is per-process scratch state between the machine's walk
// and FinishRestore.
type procRestore struct {
	mailTags []mailTag
	// conns[:adopted] is the saved conn list in owner-slot order; the rest
	// are connections only mailbox entries name (closed ones awaiting their
	// OnClose dispatch, or a message or dial result to dispatch first).
	conns   []cnet.Conn
	adopted int
	carried map[cnet.Conn]*restConn // every conn of conns
	dials   []*simnet.Dial          // the dial records of the live incarnation
}

// restConn is what a restore gathers for one carried connection end
// before FinishRestore attaches it.
type restConn struct {
	h        cnet.StreamHandlers // from RestoreConn
	restored bool
	word     uint64 // written back by the component (SetConnWord)
	// owned: the end is the incarnation's, routed to it — on the conn list,
	// or closed with its OnClose in the mailbox.
	owned bool
}

// own lists c among the restoring process's connections, once.
func (r *procRestore) own(c cnet.Conn) *restConn {
	rc := r.carried[c]
	if rc == nil {
		rc = &restConn{}
		r.carried[c] = rc
		r.conns = append(r.conns, c)
	}
	return rc
}

// SnapState moves the machine. Saving claims pending process timers and
// the armed charge ends from the kernel's pending table; loading re-arms them
// and reads the rest into process flags and restore scratch — component
// restores run between this walk and FinishRestore.
func (m *Machine) SnapState(x *snapio.Ctx) {
	m.walked = nil
	snapio.Int(x, &m.state)
	x.F64(&m.slow)
	x.U64(&m.unarmed)
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
		if !x.Saving() {
			p.rst = &procRestore{carried: map[cnet.Conn]*restConn{}}
		}

		// The elapsing charge: its end's reserved key, the incarnation that
		// charged it and whether the end is armed. A charge that is over is
		// written as none, whatever key it left behind.
		end := chargeEnd{p.endAt, p.endSeq, p.endInc, p.armed}
		if x.Saving() && !p.charging() {
			end = chargeEnd{}
		}
		end.snap(x)
		if !x.Saving() {
			if end.inc != 0 && (end.inc != p.incarnation || !p.alive) {
				snapio.Failf("machine %d/%s: a charge of incarnation %d in incarnation %d", m.id, name, end.inc, p.incarnation)
			}
			p.endAt, p.endSeq, p.endInc, p.armed = end.at, end.seq, end.inc, end.armed
		}
		// Every armed end still pending: the charge's own, and those of
		// incarnations that died with theirs armed, which fire as no-ops.
		snapio.Pending(x, procResume, 1<<8, func(q *Proc) bool { return q == p }, func(*Proc) *Proc { return p })

		if p.alive {
			// A stream not built yet travels as the stream it would be: a
			// capture writes the same bytes whether or not the process has
			// drawn, and a load builds it.
			if !x.Saving() {
				p.env = newEnv(p, p.incarnation)
				p.env.rand = p.env.newRand()
			}
			r := p.env.rand
			if r == nil {
				r = p.env.newRand()
			}
			x.Rand(r)
		} else if !x.Saving() {
			p.env = nil
		}

		// Pending timers: per event its slot, whether its incarnation lives,
		// and the record's id. A loaded record is re-armed at the slot; a
		// dead incarnation's on a stand-in Env, where it fires as a no-op.
		// SnapOwners names the live ones' owners.
		timers := snapio.Claim(x, procTimerFire, func(r *timerRec) bool { return r.e.p == p })
		for i := range x.Len(len(timers), 1<<20) {
			var ev snapio.PendingEvent
			var r *timerRec
			if x.Saving() {
				ev, r = timers[i], timers[i].Arg.(*timerRec)
			}
			x.Slot(&ev)
			live := x.Saving() && r.e.live()
			if x.Bool(&live); !x.Saving() {
				r = &timerRec{e: p.env}
				if !live {
					r.e = &Env{p: p}
				} else if !p.alive {
					snapio.Failf("machine %d/%s: a live timer of a dead process", m.id, name)
				}
				r.t = m.sim.RestoreAtArg(ev.At, ev.Seq, procTimerFire, r)
			}
			if x.Define(r); live {
				m.walked = append(m.walked, r)
			}
		}

		// The mailbox's entries in post order, across its array and segments.
		var queued []*call
		if x.Saving() {
			p.eachQueued(func(c *call) { queued = append(queued, c) })
		}
		for i := range x.Len(len(queued), 1<<20) {
			if !p.alive { // kill empties it; there is no environment to resolve an entry against
				snapio.Failf("machine %d/%s: a dead process with a mailbox", m.id, name)
			}
			var t mailTag
			if x.Saving() {
				t = m.tagOf(name, queued[i])
			}
			if t.snap(x); t.kind == tagTimer {
				m.walked = append(m.walked, t.timer)
			}
			if !x.Saving() {
				p.rst.mailTags = append(p.rst.mailTags, t)
			}
		}

		for i := range x.Len(len(p.conns), 1<<20) {
			if !p.alive {
				snapio.Failf("machine %d/%s: a dead process with connections", m.id, name)
			}
			var c *simnet.End
			if x.Saving() {
				c = p.conns[i]
			}
			if snapio.Conn(x, &c); c == nil {
				snapio.Failf("machine %d/%s: adopted conn %d is not a conn", m.id, name, i)
			}
			if !x.Saving() {
				p.rst.own(c).owned = true
				p.rst.adopted++
			}
		}
		// Mailbox-only connections (typically closed ones awaiting their
		// OnClose dispatch) join the list after the adopted set so the
		// component can restore handlers on them too. One whose close waits
		// in the mailbox is still the incarnation's until its OnClose runs.
		if !x.Saving() {
			for _, t := range p.rst.mailTags {
				if t.c != nil {
					if rc := p.rst.own(t.c); t.kind == tagClosed {
						rc.owned = true
					}
				}
			}
		}
	}

	// Dial records are owners the network's pending section refers to, and
	// a mailbox's dial results by index. A loaded record is built here, on
	// its live incarnation's environment or on a dead one's stand-in;
	// SnapOwners hands the live ones their owners back.
	m.iface.SnapHostedDials(x, &m.dials, func(d *simnet.Dial, h *simnet.DialHost) {
		var proc string
		var live bool
		if x.Saving() {
			e := (*h).(*Env)
			proc, live = e.p.name, e.live()
		}
		x.Str(&proc)
		if x.Bool(&live); x.Saving() {
			return
		}
		p := m.procs[proc]
		if p == nil {
			snapio.Failf("machine %d: dial record for unknown proc %q", m.id, proc)
		}
		e := p.env
		if !live {
			e = &Env{p: p}
		} else if !p.alive {
			snapio.Failf("machine %d: a live dial record of dead process %q", m.id, proc)
		} else {
			p.rst.dials = append(p.rst.dials, d)
		}
		*h = e
	})
}

// chargeEnd is a process's charge as the stream carries it.
type chargeEnd struct {
	at    time.Duration
	seq   uint64
	inc   uint64
	armed bool
}

func (c *chargeEnd) snap(x *snapio.Ctx) {
	snapio.Int(x, &c.at)
	x.U64(&c.seq)
	x.U64(&c.inc)
	x.Bool(&c.armed)
}

// tagOf writes a mailbox entry as the stream carries it: its record and
// handler travel as their names, and a restore resolves them again.
func (m *Machine) tagOf(proc string, c *call) mailTag {
	if c.env == nil {
		snapio.Failf("machine %d/%s: mailbox entry without env", m.id, proc)
	}
	t := mailTag{kind: c.tag, c: c.c, from: c.from, err: cnet.ErrFromCode(uint64(c.err))}
	switch {
	case !c.env.live():
		t.kind = tagDead
	case c.tag == tagTimer:
		t.timer = c.arg.(*timerRec)
	case c.tag == tagDial:
		t.dial = c.arg.(*simnet.Dial).Slot()
	case c.tag == tagDgram:
		t.m, t.port = c.arg, c.env.dgramPorts[c.port]
	case c.tag == tagStream:
		t.m = c.arg
	case c.tag != tagClosed && c.tag != tagWritable:
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
		if !x.Saving() {
			t.timer = &timerRec{queued: true}
		}
		x.Define(t.timer)
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

// SnapTicker implements cnet.RestoreEnv: a native ticker defines itself,
// the owner of its fires, and travels as its stopped flag and the fire it
// armed last, as the handle cnet.SnapTimer moves.
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
		*t = pt
	}
	x.Define(pt)
	x.Bool(&pt.stopped)
	var h clock.Timer
	if pt.rec != nil {
		h = pt.rec
	}
	if cnet.SnapTimer(x, &h, what); !x.Saving() && h != nil {
		var ok bool
		if pt.rec, ok = h.(*timerRec); !ok {
			snapio.Failf("%s ticker: %T is not a timer record", what, h)
		}
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

// SnapOwners moves, for every live dial and timer record, the component
// record it answers to. Those are defined by the processes' parts, which
// run after the machine sections, so this walk follows the parts and
// precedes FinishRestore, which asks the owners of dial results waiting in
// a mailbox for their connections' handlers. A timer armed through the
// closure form (cnet.TimerFunc) has an owner no section defines, and fails
// the save here.
func (m *Machine) SnapOwners(x *snapio.Ctx) {
	simnet.SnapHostedOwners(x, m.dials, "machine: dial")
	for _, r := range m.walked {
		snapio.Owner(x, &r.owner, nil, "machine: timer")
	}
	m.walked = nil
}

// RestoreConn re-attaches the component's handlers to a restored
// connection. They wait for FinishRestore, which attaches every carried
// end: its handlers, and for the incarnation's own ends the router and
// word, plus the owner slot for those on the saved conn list. Closed
// connections still referenced by the component (a pending OnClose in
// the mailbox) need the handlers for their mailbox entries.
func (e *Env) RestoreConn(c cnet.Conn, h cnet.StreamHandlers) {
	p := e.p
	if p.rst == nil {
		snapio.Failf("machine %d/%s: RestoreConn outside restore", p.m.id, p.name)
	}
	if _, ok := c.(*simnet.End); !ok {
		snapio.Failf("machine %d/%s: conn %T cannot restore handlers", p.m.id, p.name, c)
	}
	rc := p.rst.carried[c]
	if rc == nil {
		snapio.Failf("machine %d/%s: component restores a connection the process did not carry", p.m.id, p.name)
	}
	rc.h, rc.restored = h, true
}

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
			if t.dial < 0 || t.dial >= len(m.dials) || !slices.Contains(r.dials, m.dials[t.dial]) {
				snapio.Failf("machine %d/%s: mailbox dial result names no live dial record of its process", m.id, name)
			}
			if t.c != nil {
				p.env.RestoreConn(t.c, m.dials[t.dial].Owner().DialHandlers())
			}
		}

		for i, c := range r.conns {
			rc, end := r.carried[c], c.(*simnet.End) // RestoreConn and the walk checked the type
			if i < r.adopted {
				if !rc.restored {
					snapio.Failf("machine %d/%s: adopted conn %d not restored by component", m.id, name, i)
				}
				end.SetOwnerSlot(i)
				p.conns = append(p.conns, end)
			}
			var router *simnet.Router
			if rc.owned {
				router = &p.env.router
				end.SetWord(rc.word)
			}
			end.RestoreHandlers(router, rc.h)
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
	c := call{tag: t.kind, env: env, c: t.c, err: uint8(cnet.ErrCode(t.err))}
	switch t.kind {
	case tagDead:
		c.env = &Env{p: p}
	case tagTimer:
		t.timer.e, c.arg = env, t.timer
	case tagStream:
		if p.rst.handlers(t.c).OnMessage == nil {
			snapio.Failf("machine %d/%s: mailbox stream entry unresolvable", m.id, p.name)
		}
		c.arg = t.m
	case tagDgram:
		c.port = -1
		for i, port := range env.dgramPorts {
			if port == t.port {
				c.port = int32(i) // the last binding of a port is the one in force
			}
		}
		if c.port < 0 {
			snapio.Failf("machine %d/%s: mailbox dgram entry for unbound port %q", m.id, p.name, t.port)
		}
		c.from, c.arg = t.from, t.m
	case tagDial:
		c.arg = m.dials[t.dial] // FinishRestore checked the index
	case tagClosed:
		if p.rst.handlers(t.c).OnClose == nil {
			snapio.Failf("machine %d/%s: mailbox close entry unresolvable", m.id, p.name)
		}
	case tagWritable:
		if p.rst.handlers(t.c).OnWritable == nil {
			snapio.Failf("machine %d/%s: mailbox writable entry unresolvable", m.id, p.name)
		}
	default:
		snapio.Failf("machine: unknown mailbox tag %d", t.kind)
	}
	return c
}

// handlers returns what the component restored on c, if anything.
func (r *procRestore) handlers(c cnet.Conn) cnet.StreamHandlers {
	if rc := r.carried[c]; rc != nil {
		return rc.h
	}
	return cnet.StreamHandlers{}
}
