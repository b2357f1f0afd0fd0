// Package machine models the cluster hosts of the paper's testbed and the
// processes running on them (the PRESS server, the membership daemon, the
// FME daemon). It is the layer where the fault types of Table 1 that are
// not network faults take effect:
//
//	node crash   → Machine.Crash / Restart: processes die, connections
//	               black-hole until the reboot RSTs them.
//	node freeze  → Machine.Freeze / Unfreeze: nothing runs, timers fire
//	               late, stream traffic buffers against flow control.
//	app crash    → Machine.KillProc / StartProc: one process dies (its
//	               connections RST immediately) and is later restarted.
//	app hang     → Proc.Hang / Unhang: the process stops reading and
//	               processing but its sockets stay open — the divergence
//	               case that motivates FME (§4.4).
//
// Each process executes its work serially through a mailbox with explicit
// CPU charging, reproducing PRESS's "one main coordinating thread" design
// whose blocking behaviour (on a full disk queue) is central to the
// paper's Figure 4.
package machine

import (
	"fmt"
	"math/rand"
	"time"

	"press/internal/clock"
	"press/internal/cnet"
	"press/internal/metrics"
	"press/internal/sim"
	"press/internal/simdisk"
	"press/internal/simnet"
)

// State mirrors simnet.NodeState at the machine level.
type State = simnet.NodeState

// Machine is one simulated host.
type Machine struct {
	sim   *sim.Sim
	log   *metrics.Log
	id    cnet.NodeID
	iface *simnet.Iface  //availlint:skipfield iface interface backlink; simnet restores its own state
	disks *simdisk.Array //availlint:skipfield disks disk-array backlink; simdisk restores its own state
	state State
	// slow is the gray-degradation CPU multiplier (faults.NodeSlow):
	// every Charge on this machine's processes is scaled by it. 0 or 1
	// means healthy; the hot path tests >1 only, so an inactive machine
	// costs one comparison.
	slow  float64
	procs map[string]*Proc
	order []string

	// Free lists for the per-dial and per-timer records below, bounded so
	// a dial storm's high-water is not kept (cnet.MsgPool). Records that
	// never reach their release point (stopped timers) fall to the garbage
	// collector instead.
	dialFree  cnet.MsgPool[dialRec]
	timerFree cnet.MsgPool[timerRec]

	// dials lists the dial records whose result has not been dispatched
	// yet — in flight, or waiting in a mailbox — so snapshots can enumerate
	// them. Listed in Env.DialFor, unlisted when the record is released.
	dials []*dialRec
}

// New attaches a machine to the network. disks may be nil for hosts
// without a modeled disk (front-end, client drivers).
func New(s *sim.Sim, net *simnet.Network, id cnet.NodeID, disks *simdisk.Array, log *metrics.Log) *Machine {
	return &Machine{
		sim:   s,
		log:   log,
		id:    id,
		iface: net.AddIface(id),
		disks: disks,
		state: simnet.NodeUp,
		procs: make(map[string]*Proc),
	}
}

// ID returns the machine's node ID.
func (m *Machine) ID() cnet.NodeID { return m.id }

// Iface returns the machine's network interface (for fault injection).
func (m *Machine) Iface() *simnet.Iface { return m.iface }

// Disks returns the machine's disk array (nil if none).
func (m *Machine) Disks() *simdisk.Array { return m.disks }

// State returns the machine state.
func (m *Machine) State() State { return m.state }

// Up reports whether the machine is running normally.
func (m *Machine) Up() bool { return m.state == simnet.NodeUp }

// SetSlow injects (factor > 1) or repairs (factor <= 1) the gray
// node-slow degradation: CPU time charged by this machine's processes is
// multiplied by factor. The machine stays up and keeps answering health
// checks — only slower.
func (m *Machine) SetSlow(factor float64) {
	if factor <= 1 {
		factor = 0
	}
	m.slow = factor
}

// SlowFactor reports the current CPU multiplier (1 when healthy).
func (m *Machine) SlowFactor() float64 {
	if m.slow > 1 {
		return m.slow
	}
	return 1
}

// AddProc registers a process and starts it immediately. The start
// function is the process image: it is re-invoked with a fresh Env on
// every (re)start, so components rebuild all state from scratch exactly
// like a restarted Unix process.
func (m *Machine) AddProc(name string, start func(env *Env)) *Proc {
	p := m.AddProcCold(name, start)
	if m.state == simnet.NodeUp {
		p.boot()
	}
	return p
}

// AddProcCold registers a process without booting it: the snapshot
// restore path builds the full topology first (so no stray boot events
// reach a virgin kernel) and rehydrates process state afterwards. The
// start function still serves future restarts.
func (m *Machine) AddProcCold(name string, start func(env *Env)) *Proc {
	if _, dup := m.procs[name]; dup {
		panic("machine: duplicate proc " + name)
	}
	p := &Proc{m: m, name: name, start: start}
	m.procs[name] = p
	m.order = append(m.order, name)
	return p
}

// Proc returns the named process, or nil.
func (m *Machine) Proc(name string) *Proc { return m.procs[name] }

// Crash takes the whole machine down: every process dies, and the network
// sees the crash semantics described in simnet.
func (m *Machine) Crash() {
	if m.state == simnet.NodeDown {
		return
	}
	m.state = simnet.NodeDown
	m.iface.SetState(simnet.NodeDown)
	for _, name := range m.order {
		m.procs[name].kill(false) // iface zombied the conns already
	}
	m.emit(metrics.KServerDown, "machine crash")
}

// Restart boots a crashed machine: connections from the previous life RST
// at the peers, then every registered process starts fresh.
func (m *Machine) Restart() {
	if m.state != simnet.NodeDown {
		return
	}
	m.state = simnet.NodeUp
	m.iface.SetState(simnet.NodeUp)
	for _, name := range m.order {
		m.procs[name].boot()
	}
	m.emit(metrics.KServerUp, "machine restart")
}

// Freeze wedges the machine: no process runs, timers are deferred, stream
// traffic buffers, dials to it time out.
func (m *Machine) Freeze() {
	if m.state != simnet.NodeUp {
		return
	}
	m.state = simnet.NodeFrozen
	m.iface.SetState(simnet.NodeFrozen)
}

// Unfreeze resumes a frozen machine exactly where it stopped — processes
// did NOT restart, which is what violates the crash-only fault model the
// base PRESS assumes (§3: "PRESS is unable to re-integrate because the
// faulty node did not crash").
func (m *Machine) Unfreeze() {
	if m.state != simnet.NodeFrozen {
		return
	}
	m.state = simnet.NodeUp
	m.iface.SetState(simnet.NodeUp)
	for _, name := range m.order {
		p := m.procs[name]
		p.syncConnPause()
		p.pump()
	}
}

// KillProc crashes a single process (application crash: immediate RSTs).
func (m *Machine) KillProc(name string) {
	if p := m.procs[name]; p != nil && m.state == simnet.NodeUp {
		p.kill(true)
	}
}

// StartProc (re)starts a dead process.
func (m *Machine) StartProc(name string) {
	if p := m.procs[name]; p != nil && m.state == simnet.NodeUp && !p.alive {
		p.boot()
	}
}

// TakeOffline is the FME "take the node offline for repair" action: the
// machine goes down exactly as in a crash, converting whatever was wrong
// into the fault the rest of the system knows how to handle.
func (m *Machine) TakeOffline(reason string) {
	m.emit(metrics.KFMEAction, "offline: "+reason)
	m.Crash()
}

func (m *Machine) emit(kind metrics.KindID, detail string) {
	if m.log != nil {
		m.log.EmitID(m.sim.Now(), metrics.SrcMachine, kind, int(m.id), detail)
	}
}

// Proc is one process on a machine: a serial event loop with a mailbox.
type Proc struct {
	m           *Machine //availlint:skipfield m owner backlink, set by AddProc on the rebuilt machine
	name        string
	start       func(env *Env) // component entry closure, re-supplied by AddProc during the rebuild
	incarnation uint64
	alive       bool
	hung        bool
	stalled     bool
	running     bool          // a handler's charged CPU time is still elapsing
	curCharge   time.Duration // zeroed before every handler dispatch; between events it is a leftover nobody reads
	mailbox     []call
	head        int // next mailbox slot to dispatch; storage before it is spent
	resume      resumeRec
	env         *Env
	// conns lists the open connection ends this incarnation adopted, each
	// at the index it carries as its owner slot. An end is the
	// incarnation's while it is routed to Env.router: on this list, or
	// closed by the peer with its OnClose still waiting in the mailbox.
	conns []simnet.StreamConn
	// pauseScratch is syncConnPause's reusable snapshot of the conn list,
	// used as a stack so a nested call leaves the outer one's span alone.
	pauseScratch []simnet.StreamConn

	// timerSeq numbers every proc-clock timer ever armed, monotonically
	// across incarnations, giving components a serializable identity for
	// retained timer handles.
	timerSeq uint64

	// rst holds restore-only scratch state; nil outside a restore.
	rst *procRestore
}

// Mailbox entry tags: what an entry dispatches. A snapshot writes an entry
// as its tag and the arguments that tag keeps (mailTag), so the values are
// the format's.
const (
	tagDead     = 0 // entry whose incarnation died; dispatch is a no-op
	tagStream   = 1
	tagDgram    = 2
	tagDial     = 3
	tagClosed   = 4
	tagWritable = 5
	tagTimer    = 6
)

// call is one mailbox entry: a tag and the arguments that tag keeps, in
// typed fields instead of a per-delivery closure, so posting allocates
// nothing once the mailbox's storage has grown to its high-water mark.
// Nor does an entry carry a handler: stream, close and writable entries
// read theirs from the connection end at dispatch (handlers never change
// after adoption outside a restore), and a datagram entry names its
// port's by index. Every tag is gated on env.live() at dispatch.
type call struct {
	env *Env      // liveness gate
	c   cnet.Conn // stream, close, writable; a dial's result
	// arg is a stream or datagram entry's message, and a timer or dial
	// entry's record (*timerRec, *dialRec).
	arg  any
	from cnet.NodeID // datagram sender
	port int32       // datagram port, as its index in env.dgramPorts/dgramH
	tag  uint8
	err  uint8 // cnet.ErrCode of a close or a dial's result
}

func (c *call) dispatch() {
	switch c.tag {
	case tagTimer:
		// Recycle before running: fn may itself schedule a timer and
		// reuse the record immediately.
		r := c.arg.(*timerRec)
		fn := r.fn
		c.env.p.m.putTimer(r)
		if c.env.live() {
			fn()
		}
		return
	case tagDial:
		// Recycle before running: the owner may dial again at once.
		r := c.arg.(*dialRec)
		owner := r.owner
		c.env.p.m.putDial(r)
		if c.env.live() {
			owner.DialResult(c.c, cnet.ErrFromCode(uint64(c.err)))
		}
		return
	}
	if !c.env.live() {
		return
	}
	switch c.tag {
	case tagStream:
		c.c.(simnet.StreamConn).Handlers().OnMessage(c.c, c.arg)
	case tagDgram:
		c.env.dgramH[c.port](c.from, c.arg)
	case tagClosed:
		sc := c.c.(simnet.StreamConn)
		sc.Handlers().OnClose(c.c, cnet.ErrFromCode(uint64(c.err)))
		if c.env.live() {
			sc.Route(nil) // its OnClose has run: the end is nobody's
		}
	case tagWritable:
		c.c.(simnet.StreamConn).Handlers().OnWritable(c.c)
	}
}

// resumeRec carries the charge-elapsed wakeup through sim.AfterArg; one
// per process, reused, since at most one charge is elapsing at a time.
type resumeRec struct {
	p   *Proc // owner backlink, re-set by pump before every arm
	inc uint64
}

// procResume ends a CPU charge: back to draining the mailbox unless the
// process died (or was restarted) while the charge elapsed.
func procResume(arg any) {
	r := arg.(*resumeRec)
	if r.p.incarnation != r.inc {
		return
	}
	r.p.running = false
	r.p.pump()
}

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Alive reports whether the process is running (hung counts as alive).
func (p *Proc) Alive() bool { return p.alive }

// Hung reports the hang state.
func (p *Proc) Hung() bool { return p.hung }

// Env returns the current incarnation's environment (nil before first
// boot). Exposed for tests and for wiring components to their disks.
func (p *Proc) Env() *Env { return p.env }

// Hang injects an application hang: the process keeps its sockets but
// stops reading and processing. Datagrams to it are dropped; streams
// buffer and then stall their senders.
func (p *Proc) Hang() {
	if !p.alive || p.hung {
		return
	}
	p.hung = true
	p.syncConnPause()
}

// Unhang clears a hang; the backlog is processed in order.
func (p *Proc) Unhang() {
	if !p.alive || !p.hung {
		return
	}
	p.hung = false
	p.syncConnPause()
	p.pump()
}

// Stalled reports whether the process blocked itself (full disk queue).
func (p *Proc) Stalled() bool { return p.stalled }

// MailboxLen reports the backlog length (tests/diagnostics).
func (p *Proc) MailboxLen() int { return len(p.mailbox) - p.head }

func (p *Proc) boot() {
	p.incarnation++
	p.alive = true
	p.hung = false
	p.stalled = false
	p.running = false
	p.mailbox = nil
	p.head = 0
	p.conns = nil
	p.env = newEnv(p, p.incarnation)
	p.env.rand = p.m.sim.NewRand(fmt.Sprintf("node%d/%s/%d", p.m.id, p.name, p.incarnation))
	p.start(p.env)
}

func (p *Proc) kill(abortConns bool) {
	if !p.alive {
		return
	}
	p.alive = false
	p.incarnation++
	// Discarded mailbox entries drop their conn pins (taken in postCall)
	// before the aborts below — an aborted pair with no surviving pins can
	// go straight back to the network's pool — and their dial records.
	for i := p.head; i < len(p.mailbox); i++ {
		c := &p.mailbox[i]
		if sc, ok := c.c.(simnet.StreamConn); ok {
			sc.Release()
		}
		if c.tag == tagDial {
			p.m.putDial(c.arg.(*dialRec))
		}
	}
	p.mailbox = nil
	p.head = 0
	if p.env != nil {
		for _, port := range p.env.dgramPorts {
			p.m.iface.BindDatagram(port, nil)
		}
		for _, port := range p.env.listenPorts {
			p.m.iface.Listen(port, nil)
		}
	}
	conns := p.conns
	p.conns = nil
	if abortConns {
		for _, c := range conns {
			c.Abort()
		}
	}
}

func (p *Proc) runnable() bool {
	return p.alive && !p.hung && !p.stalled && p.m.state == simnet.NodeUp
}

// postCall runs one mailbox entry: at once when the process is idle —
// alive, runnable, no charge elapsing, nothing queued — so an idle process
// stores no entry, and otherwise behind the queue, reclaiming spent
// storage when the queue drains so steady-state posting reuses one
// backing array.
func (p *Proc) postCall(c call) {
	if !p.alive {
		return
	}
	// An entry stashes its conn pointer until it has run: pin the conn's
	// backing allocation until the entry is dispatched (step) or discarded
	// (kill).
	if sc, ok := c.c.(simnet.StreamConn); ok {
		sc.Retain()
	}
	if !p.running && p.runnable() && p.head == len(p.mailbox) {
		p.step(&c)
		return
	}
	if p.head > 0 {
		if p.head == len(p.mailbox) {
			p.mailbox = p.mailbox[:0]
			p.head = 0
		} else if len(p.mailbox) == cap(p.mailbox) {
			// The mailbox is a queue consumed at head; with a standing
			// backlog it never fully drains, so append-only growth would
			// reallocate forever. Slide the backlog over the spent prefix
			// and zero the vacated tail so its pointers die.
			n := copy(p.mailbox, p.mailbox[p.head:])
			tail := p.mailbox[n:]
			for i := range tail {
				tail[i] = call{}
			}
			p.mailbox = p.mailbox[:n]
			p.head = 0
		}
	}
	p.mailbox = append(p.mailbox, c)
	p.pump()
}

// pump drains the mailbox, honoring CPU charges: a handler that charges d
// delays everything behind it by d, exactly like work on PRESS's main
// coordinating thread.
func (p *Proc) pump() {
	for !p.running && p.runnable() && p.head < len(p.mailbox) {
		c := p.mailbox[p.head]
		p.mailbox[p.head] = call{}
		p.head++
		if !p.step(&c) {
			return // died inside the handler
		}
	}
	if p.head > 0 && p.head == len(p.mailbox) {
		p.mailbox = p.mailbox[:0]
		p.head = 0
	}
}

// step runs one entry and starts the CPU charge its handler accrued: the
// one dispatch step of pump and of postCall's idle path. It reports
// whether the process outlived the handler.
func (p *Proc) step(c *call) bool {
	inc := p.incarnation
	p.curCharge = 0
	c.dispatch()
	if sc, ok := c.c.(simnet.StreamConn); ok {
		sc.Release() // pin taken by postCall
	}
	if p.incarnation != inc {
		return false
	}
	if p.curCharge > 0 {
		p.running = true
		p.resume.p, p.resume.inc = p, inc
		p.m.sim.AfterArg(p.curCharge, procResume, &p.resume)
	}
	return true
}

func (p *Proc) syncConnPause() {
	paused := p.hung || p.stalled
	if paused {
		// Pausing calls nothing back, so the list cannot change under the
		// walk. A server blocking on a full disk queue comes through here
		// once per stall.
		for _, c := range p.conns {
			c.SetPaused(true)
		}
		return
	}
	// Unpausing drains buffered messages, which can close connections and
	// mutate p.conns via the router: iterate a snapshot. It lives on
	// the process and is reused — the same server comes through here once
	// per stall too. The drain can also re-enter (a drained handler stalls
	// again and the disk frees a slot at once), so the scratch is a stack:
	// a nested call appends its snapshot above this one's span and pops it
	// again.
	base := len(p.pauseScratch)
	p.pauseScratch = append(p.pauseScratch, p.conns...)
	end := len(p.pauseScratch)
	for i := base; i < end; i++ {
		p.pauseScratch[i].SetPaused(false)
	}
	clear(p.pauseScratch[base:end])
	p.pauseScratch = p.pauseScratch[:base]
}

// adoptConn makes c an end of this incarnation: on the conn list at the
// index it carries as its owner slot, and routed to the mailbox. The
// component's handlers are already on it. Adopting allocates nothing
// beyond the list's growth. A connection shed before it got here is
// already closed: Route runs the router's Closed at once, which drops it
// again.
func (p *Proc) adoptConn(e *Env, c simnet.StreamConn) {
	c.SetOwnerSlot(len(p.conns))
	p.conns = append(p.conns, c)
	c.Route(&e.router)
	if p.hung || p.stalled {
		c.SetPaused(true)
	}
}

// removeConn takes c off the conn list: an O(1) swap-remove, which
// preserves the exact order a first-match scan produced (conns are
// unique). A connection the list does not hold at its slot is left alone.
func (p *Proc) removeConn(c simnet.StreamConn) {
	i := c.OwnerSlot()
	if i < 0 || i >= len(p.conns) || p.conns[i] != c {
		return
	}
	c.SetOwnerSlot(-1)
	last := len(p.conns) - 1
	p.conns[i] = p.conns[last]
	if i != last {
		p.conns[i].SetOwnerSlot(i)
	}
	p.conns[last] = nil
	p.conns = p.conns[:last]
}

// dialRec is one Env.DialFor whose result has not been dispatched: the
// network's owner record for the handshake, in front of the component's
// record that issued the dial. It is released when the mailbox dispatches
// the result to owner (or discards it); the owner's handlers go to the
// connection on success.
type dialRec struct {
	e     *Env
	owner cnet.DialOwner // the issuing component's record, defined by its walk
	slot  int            // index in Machine.dials
}

// DialHandlers implements cnet.DialOwner: the connection gets the owner's
// handlers, or none when the incarnation has died.
func (r *dialRec) DialHandlers() cnet.StreamHandlers {
	if !r.e.live() {
		return cnet.StreamHandlers{}
	}
	return r.owner.DialHandlers()
}

// DialResult implements cnet.DialOwner: adopt the connection and post the
// result for the owner, or drop both when the incarnation has died.
func (r *dialRec) DialResult(c cnet.Conn, err error) {
	e := r.e
	if !e.live() {
		if c != nil {
			c.Close() // never adopted
		}
		e.p.m.putDial(r)
		return
	}
	if c != nil {
		e.p.adoptConn(e, c.(simnet.StreamConn))
	}
	e.p.postCall(call{tag: tagDial, env: e, c: c, arg: r, err: uint8(cnet.ErrCode(err))})
}

func (m *Machine) putDial(r *dialRec) {
	if r.slot >= 0 && r.slot < len(m.dials) && m.dials[r.slot] == r {
		last := len(m.dials) - 1
		moved := m.dials[last]
		m.dials[r.slot] = moved
		moved.slot = r.slot
		m.dials[last] = nil
		m.dials = m.dials[:last]
	}
	r.e, r.owner, r.slot = nil, nil, -1
	m.dialFree.Put(r)
}

// timerRec carries one AfterFunc callback through the sim kernel's
// pooled argument timers; released when it fires (or is overtaken by
// death of its incarnation). Stopped timers leak their record to the GC,
// which is rare and harmless.
type timerRec struct {
	e      *Env
	fn     func() // timer callback, re-supplied by the component via Env.RestoreTimer
	serial uint64
}

func (m *Machine) putTimer(r *timerRec) {
	r.e, r.fn, r.serial = nil, nil, 0
	m.timerFree.Put(r)
}

// procTimerFire is the sim-kernel callback for procClock.AfterFunc: route
// the stored fn through the mailbox, or recycle immediately if the
// incarnation died while the timer was pending.
func procTimerFire(arg any) {
	r := arg.(*timerRec)
	e := r.e
	if !e.live() {
		e.p.m.putTimer(r)
		return
	}
	e.p.postCall(call{tag: tagTimer, env: e, arg: r})
}

// Env implements cnet.Env for one incarnation of one process. Every method
// is a no-op once the incarnation is dead, so stale closures held by a
// previous life of a component can never act on the new one.
type Env struct {
	p           *Proc
	inc         uint64
	rand        *rand.Rand
	dgramPorts  []string //availlint:skipfield dgramPorts repopulated as restored components re-bind their ports
	listenPorts []string //availlint:skipfield listenPorts repopulated as restored components re-listen

	// dgramH keeps the component handler of dgramPorts[i]: a datagram
	// entry names its handler by that index.
	dgramH []func(from cnet.NodeID, m cnet.Message) // rebuilt as restored components re-bind their handlers

	// router carries the events of every connection end this incarnation
	// adopted to its mailbox; built once by newEnv.
	router simnet.Router // closures over the Env, rebuilt by newEnv
}

// newEnv builds the environment of one incarnation, its router included.
func newEnv(p *Proc, inc uint64) *Env {
	e := &Env{p: p, inc: inc}
	// simnet's delivery schedule does not depend on handler presence: an
	// event whose component handler is nil posts nothing. A dead
	// incarnation's ends were aborted, or went down with the machine, and
	// its router posts nothing either.
	e.router = simnet.Router{
		Message: func(c cnet.Conn, msg cnet.Message) {
			if c.(simnet.StreamConn).Handlers().OnMessage != nil && e.live() {
				p.postCall(call{tag: tagStream, env: e, c: c, arg: msg})
			}
		},
		Close: func(c cnet.Conn, err error) {
			if !e.live() {
				return
			}
			// Off the list before posting: the component's OnClose may run
			// at once and must see the list without this connection. The end
			// stays routed here, and so keeps its word, until it has.
			sc := c.(simnet.StreamConn)
			p.removeConn(sc)
			if sc.Handlers().OnClose == nil {
				sc.Route(nil)
				return
			}
			p.postCall(call{tag: tagClosed, env: e, c: c, err: uint8(cnet.ErrCode(err))})
		},
		Writable: func(c cnet.Conn) {
			if c.(simnet.StreamConn).Handlers().OnWritable != nil && e.live() {
				p.postCall(call{tag: tagWritable, env: e, c: c})
			}
		},
		// Every close path the component or the process takes, including a
		// component-initiated Close: without this, long-lived processes
		// (the front-end relays two connections per request) accumulate
		// dead connections and every scan over p.conns degenerates.
		Closed: func(c cnet.Conn) {
			if e.live() {
				sc := c.(simnet.StreamConn)
				p.removeConn(sc)
				sc.Route(nil)
			}
		},
	}
	return e
}

// owned returns c when it is an end of this incarnation: on its conn
// list, or closed by the peer with its OnClose still in the mailbox.
func (e *Env) owned(c cnet.Conn) simnet.StreamConn {
	if sc, ok := c.(simnet.StreamConn); ok && e.live() && sc.Router() == &e.router {
		return sc
	}
	return nil
}

func (e *Env) live() bool { return e.p.alive && e.p.incarnation == e.inc }

// Live reports whether this is still the process's running incarnation.
// Protocol code has no use for it — a dead incarnation's Env ignores it —
// but what outlives an incarnation elsewhere (a read in the disk queue)
// is snapshotted by whether its owner is alive.
func (e *Env) Live() bool { return e.live() }

// Local implements cnet.Env.
func (e *Env) Local() cnet.NodeID { return e.p.m.id }

// Machine returns the hosting machine (simulator-only extension used by
// harness wiring; protocol components must not depend on it).
func (e *Env) Machine() *Machine { return e.p.m }

// Clock implements cnet.Env: timers die with the incarnation and are
// delivered through the mailbox (so they are deferred by freezes, hangs
// and stalls).
func (e *Env) Clock() clock.Clock { return procClock{e} }

// Rand implements cnet.Env.
func (e *Env) Rand() *rand.Rand { return e.rand }

// Events implements cnet.Env.
func (e *Env) Events() *metrics.Log {
	if e.p.m.log == nil {
		return &metrics.Log{}
	}
	return e.p.m.log
}

// Charge implements cnet.Env. A machine degraded by SetSlow charges
// scaled CPU time: the node-slow gray fault, invisible to binary health
// checks.
func (e *Env) Charge(d time.Duration) {
	if e.live() && d > 0 {
		if s := e.p.m.slow; s > 1 {
			d = time.Duration(float64(d) * s)
		}
		e.p.curCharge += d
	}
}

// Stall implements cnet.Env: the process blocks (disk queue full).
func (e *Env) Stall() {
	if !e.live() || e.p.stalled {
		return
	}
	e.p.stalled = true
	e.p.syncConnPause()
}

// Resume implements cnet.Env; callable from outside the process (disk
// completion context).
func (e *Env) Resume() {
	if !e.live() || !e.p.stalled {
		return
	}
	e.p.stalled = false
	e.p.syncConnPause()
	e.p.pump()
}

// Send implements cnet.Env.
func (e *Env) Send(to cnet.NodeID, class cnet.Class, port string, m cnet.Message, size int) {
	if e.live() {
		e.p.m.iface.Send(to, class, port, m, size)
	}
}

// Multicast implements cnet.Env.
func (e *Env) Multicast(group, port string, m cnet.Message, size int) {
	if e.live() {
		e.p.m.iface.Multicast(group, port, m, size)
	}
}

// JoinGroup implements cnet.Env.
func (e *Env) JoinGroup(group string) {
	if e.live() {
		e.p.m.iface.JoinGroup(group)
	}
}

// BindDatagram implements cnet.Env. Datagrams are dropped (not queued)
// while the process is not runnable — a non-reading process overflows its
// socket buffer.
func (e *Env) BindDatagram(port string, h func(from cnet.NodeID, m cnet.Message)) {
	if !e.live() {
		return
	}
	i := int32(len(e.dgramPorts))
	e.dgramPorts = append(e.dgramPorts, port)
	e.dgramH = append(e.dgramH, h)
	e.p.m.iface.BindDatagram(port, func(from cnet.NodeID, m cnet.Message) {
		if !e.live() || !e.p.runnable() {
			return
		}
		e.p.postCall(call{tag: tagDgram, env: e, from: from, arg: m, port: i})
	})
}

// DialFor implements cnet.Env.
func (e *Env) DialFor(to cnet.NodeID, class cnet.Class, port string, owner cnet.DialOwner) {
	if !e.live() {
		return
	}
	dr := e.p.m.dialFree.Get()
	dr.e, dr.owner = e, owner
	dr.slot = len(e.p.m.dials)
	e.p.m.dials = append(e.p.m.dials, dr)
	e.p.m.iface.DialFor(to, class, port, dr)
}

// Dial implements cnet.Env.
func (e *Env) Dial(to cnet.NodeID, class cnet.Class, port string, h cnet.StreamHandlers, result func(cnet.Conn, error)) {
	e.DialFor(to, class, port, &cnet.DialFuncs{H: h, Result: result})
}

// Listen implements cnet.Env.
func (e *Env) Listen(port string, accept func(c cnet.Conn) cnet.StreamHandlers) {
	if !e.live() {
		return
	}
	e.listenPorts = append(e.listenPorts, port)
	e.p.m.iface.Listen(port, func(c cnet.Conn) cnet.StreamHandlers {
		// Handshake succeeds even while hung (TCP backlog); the conn is
		// adopted paused in that case. It is adopted before accept runs,
		// so a component that sheds the connection by closing it inside
		// accept goes through the router's Closed like any other close.
		e.p.adoptConn(e, c.(simnet.StreamConn))
		return accept(c)
	})
}

// SetConnWord implements cnet.Env: the word lives on the end. Inside a
// restore the ends are not routed yet: the word waits with the handlers
// RestoreConn left.
func (e *Env) SetConnWord(c cnet.Conn, w uint64) {
	if !e.live() {
		return
	}
	if rst := e.p.rst; rst != nil {
		if rc := rst.carried[c]; rc != nil {
			rc.word = w
		}
	} else if sc := e.owned(c); sc != nil {
		sc.SetWord(w)
	}
}

// ConnWord implements cnet.Env.
func (e *Env) ConnWord(c cnet.Conn) uint64 {
	if sc := e.owned(c); sc != nil {
		return sc.Word()
	}
	return 0
}

var _ cnet.Env = (*Env)(nil)

// procClock delivers timer callbacks through the process mailbox.
type procClock struct{ e *Env }

func (pc procClock) Now() time.Duration { return pc.e.p.m.sim.Now() }

func (pc procClock) AfterFunc(d time.Duration, fn func()) clock.Timer {
	e := pc.e
	if !e.live() {
		return deadTimer{}
	}
	r := e.p.m.timerFree.Get()
	e.p.timerSeq++
	r.e, r.fn, r.serial = e, fn, e.p.timerSeq
	return procTimer{t: e.p.m.sim.AfterArg(d, procTimerFire, r), serial: r.serial}
}

// Every delivers a periodic callback through the process mailbox with
// rearm-at-end semantics, so each rearm happens inside the mailbox
// dispatch of the previous tick and dies with the process/incarnation
// exactly as a hand-rolled rearm chain would: once live() fails, arm
// stops scheduling. The simulated clock uses a machine-native ticker
// rather than the generic clock.FuncTicker: the rearm path reuses the
// same pooled timerRec and kernel events (identical schedules, serials,
// and event counts), but never constructs a clock.Timer interface value
// — that per-period box is the entire steady-state heap allocation of
// an otherwise idle cluster.
func (pc procClock) Every(d time.Duration, fn func()) clock.Ticker {
	if !pc.e.live() {
		return deadTicker{}
	}
	if fn == nil {
		panic("clock: nil ticker function")
	}
	if d <= 0 {
		panic("clock: ticker period must be positive")
	}
	t := &procTicker{e: pc.e, period: d, fn: fn}
	t.fireFn = t.fire
	t.arm(d)
	return t
}

// procTicker is the simulated clock's Ticker. Semantics mirror
// clock.FuncTicker exactly (fire, run fn, rearm after fn returns; Stop
// inside the callback suppresses the rearm; Reschedule replaces it), and
// the pending one-shot is an ordinary proc timer — same pooled record,
// same serial sequence, same kernel callback — so the snapshot claim
// machinery needs no new cases.
type procTicker struct {
	e       *Env
	period  time.Duration
	fn      func()    // tick callback, re-supplied by the component on restore (Env.SnapTicker)
	fireFn  func()    // once-bound dispatch closure, rebuilt with the ticker
	t       sim.Timer // pending kernel handle, re-armed by serial claim on restore
	serial  uint64
	firing  bool // fn is running
	rearmed bool // ... and called Reschedule; both false between events
	stopped bool
}

// arm schedules the next fire as a plain proc timer, keeping the handle
// unboxed.
func (t *procTicker) arm(d time.Duration) {
	e := t.e
	if !e.live() {
		return
	}
	r := e.p.m.timerFree.Get()
	e.p.timerSeq++
	r.e, r.fn, r.serial = e, t.fireFn, e.p.timerSeq
	t.t = e.p.m.sim.AfterArg(d, procTimerFire, r)
	t.serial = r.serial
}

func (t *procTicker) fire() {
	if t.stopped {
		return
	}
	t.firing = true
	t.fn()
	rearmed := t.rearmed
	t.firing, t.rearmed = false, false
	if !t.stopped && !rearmed {
		t.arm(t.period)
	}
}

// Stop ends the loop; see the clock.Ticker contract.
func (t *procTicker) Stop() bool {
	if t.stopped {
		return false
	}
	t.stopped = true
	active := t.firing
	if t.t.Stop() {
		active = true
	}
	t.t, t.serial = sim.Timer{}, 0
	return active
}

// Reschedule retimes (or revives) the loop; see the clock.Ticker contract.
func (t *procTicker) Reschedule(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.stopped = false
	if t.firing {
		t.rearmed = true
	}
	t.t.Stop()
	t.arm(d)
}

var _ clock.Ticker = (*procTicker)(nil)

// procTimer is the handle AfterFunc returns: the kernel timer plus the
// proc-scoped serial snapshots use to re-identify pending timers. It
// holds the concrete kernel handle — not a clock.Timer interface — so
// returning it costs one interface allocation, not two (the heartbeat
// rearm path is allocation-budgeted). The zero kernel handle is inert,
// which is exactly what a restored fire-in-mailbox/spent handle needs.
type procTimer struct {
	t      sim.Timer
	serial uint64
}

func (t procTimer) Stop() bool { return t.t.Stop() }

// TimerSerial exposes the serial; components assert for it structurally
// (interface{ TimerSerial() uint64 }) when saving retained handles.
func (t procTimer) TimerSerial() uint64 { return t.serial }

type deadTimer struct{}

func (deadTimer) Stop() bool { return false }

type deadTicker struct{}

func (deadTicker) Stop() bool               { return false }
func (deadTicker) Reschedule(time.Duration) {}
