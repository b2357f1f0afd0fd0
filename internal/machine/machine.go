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
	curCharge   time.Duration //availlint:skipfield curCharge zeroed before every handler dispatch; between events it is a leftover nobody reads
	mailbox     []call
	head        int // next mailbox slot to dispatch; storage before it is spent
	resume      resumeRec
	env         *Env
	conns       []connRec
	// closing[closingHead:] holds the records of connections the peer
	// closed whose OnClose still waits in the mailbox: out of conns the
	// moment the close arrives, but the owner's word has to last until its
	// OnClose has run. A queue in the order of the mailbox's close entries,
	// one record each, which is also why a snapshot does not write it: a
	// restore makes it again from those entries.
	closing     []connRec
	closingHead int
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

// call is one mailbox entry. Stream/datagram/dial callbacks at packet
// rate carry their handler and arguments in typed fields instead of a
// per-delivery closure, so posting them allocates nothing once the
// mailbox's storage has grown to its high-water mark. Exactly one of
// sfn/dfn/rfn/wfn/tr/dr is set; every form is gated on env.live() at
// dispatch, which is what their closure equivalents did.
type call struct {
	sfn  func(cnet.Conn, cnet.Message)   // stream OnMessage
	dfn  func(cnet.NodeID, cnet.Message) // datagram handler
	rfn  func(cnet.Conn, error)          // stream OnClose
	wfn  func(cnet.Conn)                 // stream OnWritable
	tr   *timerRec                       // pooled AfterFunc callback
	dr   *dialRec                        // dial result, for the record's owner
	env  *Env                            // liveness gate
	c    cnet.Conn
	m    cnet.Message
	from cnet.NodeID
	err  error
	port string // dgram port: the entry's snapshot identity (a handler cannot be serialized)
}

func (c *call) dispatch() {
	switch {
	case c.sfn != nil:
		if c.env.live() {
			c.sfn(c.c, c.m)
		}
	case c.dfn != nil:
		if c.env.live() {
			c.dfn(c.from, c.m)
		}
	case c.rfn != nil:
		if c.env.live() {
			c.rfn(c.c, c.err)
			if c.env.live() {
				c.env.p.unparkConn() // its OnClose has run
			}
		}
	case c.dr != nil:
		// Recycle before running: the owner may dial again at once.
		owner := c.dr.owner
		c.env.p.m.putDial(c.dr)
		if c.env.live() {
			owner.DialResult(c.c, c.err)
		}
	case c.wfn != nil:
		if c.env.live() {
			c.wfn(c.c)
		}
	case c.tr != nil:
		// Recycle before running: fn may itself schedule a timer and
		// reuse the record immediately.
		r := c.tr
		fn := r.fn
		r.e.p.m.putTimer(r)
		if c.env.live() {
			fn()
		}
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
	p.conns, p.closing, p.closingHead = nil, nil, 0
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
		if c.dr != nil {
			p.m.putDial(c.dr)
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
	p.conns, p.closing, p.closingHead = nil, nil, 0
	if abortConns {
		for _, r := range conns {
			r.c.Abort()
		}
	}
}

func (p *Proc) runnable() bool {
	return p.alive && !p.hung && !p.stalled && p.m.state == simnet.NodeUp
}

// postCall enqueues one mailbox entry, reclaiming spent storage when the
// queue drains so steady-state posting reuses one backing array.
func (p *Proc) postCall(c call) {
	if !p.alive {
		return
	}
	// A queued entry stashes its conn pointer across events: pin the
	// conn's backing allocation until the entry is dispatched (pump) or
	// discarded (kill).
	if sc, ok := c.c.(simnet.StreamConn); ok {
		sc.Retain()
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
		inc := p.incarnation
		p.curCharge = 0
		c.dispatch()
		if sc, ok := c.c.(simnet.StreamConn); ok {
			sc.Release() // pin taken by postCall
		}
		if p.incarnation != inc {
			return // died inside the handler
		}
		if p.curCharge > 0 {
			p.running = true
			p.resume.p, p.resume.inc = p, inc
			p.m.sim.AfterArg(p.curCharge, procResume, &p.resume)
		}
	}
	if p.head > 0 && p.head == len(p.mailbox) {
		p.mailbox = p.mailbox[:0]
		p.head = 0
	}
}

func (p *Proc) syncConnPause() {
	paused := p.hung || p.stalled
	if paused {
		// Pausing calls nothing back, so the list cannot change under the
		// walk. A server blocking on a full disk queue comes through here
		// once per stall.
		for i := range p.conns {
			p.conns[i].c.SetPaused(true)
		}
		return
	}
	// Unpausing drains buffered messages, which can close connections and
	// mutate p.conns via the close hook: iterate a snapshot. It lives on
	// the process and is reused — the same server comes through here once
	// per stall too. The drain can also re-enter (a drained handler stalls
	// again and the disk frees a slot at once), so the scratch is a stack:
	// a nested call appends its snapshot above this one's span and pops it
	// again.
	base := len(p.pauseScratch)
	for i := range p.conns {
		p.pauseScratch = append(p.pauseScratch, p.conns[i].c)
	}
	end := len(p.pauseScratch)
	for i := base; i < end; i++ {
		p.pauseScratch[i].SetPaused(false)
	}
	clear(p.pauseScratch[base:end])
	p.pauseScratch = p.pauseScratch[:base]
}

// connRec is everything the machine layer keeps for one adopted
// connection end: the conn and the component's handlers for it. Records
// live by value in the owning process's conn list, at the index the
// connection carries as its owner slot — adopting a connection allocates
// nothing beyond that list's growth. The handlers simnet calls are the
// incarnation's shared mailbox wrappers (Env.hooks), which find the
// record through the slot.
type connRec struct {
	c simnet.StreamConn
	h cnet.StreamHandlers // component handlers, re-attached by the owning component via RestoreConn
	// word is the owning component's (cnet.Env.SetConnWord): the PRESS
	// server keeps the id of the request a client connection carries here.
	// A restoring component writes it again.
	word uint64
}

func (p *Proc) adoptConn(e *Env, c simnet.StreamConn, h cnet.StreamHandlers) {
	c.SetOwnerSlot(len(p.conns))
	p.conns = append(p.conns, connRec{c: c, h: h})
	// Prune on every close path, including component-initiated Close —
	// without this, long-lived processes (the front-end relays two
	// connections per request) accumulate dead connections and every
	// scan over p.conns degenerates. A connection shed before it got here
	// is already closed: the hook runs at once and drops the record again.
	c.SetCloseHook(e.hooks.closed)
	if p.hung || p.stalled {
		c.SetPaused(true)
	}
}

// connOf returns the process's record of c, or nil when c is not (or no
// longer) among its connections: the owner slot may be stale after a
// process restart reset p.conns, so it must actually hold this connection.
func (p *Proc) connOf(c cnet.Conn) *connRec {
	sc, ok := c.(simnet.StreamConn)
	if !ok {
		return nil
	}
	i := sc.OwnerSlot()
	if i < 0 || i >= len(p.conns) || p.conns[i].c != sc {
		return nil
	}
	return &p.conns[i]
}

func (p *Proc) dropConn(c cnet.Conn) {
	if r := p.connOf(c); r != nil {
		p.removeConn(r)
	}
}

// removeConn takes r out of the conn list: an O(1) swap-remove, which
// preserves the exact order a first-match scan produced (conns are unique).
func (p *Proc) removeConn(r *connRec) {
	i := r.c.OwnerSlot()
	r.c.SetOwnerSlot(-1)
	last := len(p.conns) - 1
	p.conns[i] = p.conns[last]
	if i != last {
		p.conns[i].c.SetOwnerSlot(i)
	}
	p.conns[last] = connRec{}
	p.conns = p.conns[:last]
}

// parkConn moves r from the conn list to the back of the closing queue: the
// peer's close has arrived and the component's OnClose is about to be
// posted.
func (p *Proc) parkConn(r *connRec) {
	// Reuse the spent front of the queue's storage before growing it: all
	// of it when the queue has drained, and under a standing backlog once
	// it is at least half, so the copying stays proportional to the appends.
	if q, head := p.closing, p.closingHead; head == len(q) || (len(q) == cap(q) && 2*head >= len(q)) {
		n := copy(q, q[head:])
		clear(q[n:])
		p.closing, p.closingHead = q[:n], 0
	}
	p.closing = append(p.closing, *r)
	p.removeConn(r)
}

// unparkConn retires the front of the closing queue: the mailbox has just
// run the OnClose of the connection parked longest. A process that died
// and restarted inside that OnClose has a new queue, which this close is
// not on.
func (p *Proc) unparkConn() {
	if p.closingHead < len(p.closing) {
		p.closing[p.closingHead] = connRec{}
		p.closingHead++
	}
}

// wordOf returns the owner's word of c, held or parked; nil for a
// connection the process has no record of. The parked one asked about is
// the front of the queue when its own OnClose asks; anyone else — a server
// admitting a request whose client has hung up meanwhile — looks down the
// queue.
func (p *Proc) wordOf(c cnet.Conn) *uint64 {
	sc, ok := c.(simnet.StreamConn)
	if !ok {
		return nil
	}
	if i := sc.OwnerSlot(); i >= 0 {
		if i < len(p.conns) && p.conns[i].c == sc {
			return &p.conns[i].word
		}
		return nil // the slot is not ours: a connection of an incarnation that died
	}
	for k := p.closingHead; k < len(p.closing); k++ {
		if p.closing[k].c == sc {
			return &p.closing[k].word
		}
	}
	return nil
}

// dialRec is one Env.DialFor whose result has not been dispatched: the
// network's owner record for the handshake, in front of the component's
// record that issued the dial. It is released when the mailbox dispatches
// the result to owner (or discards it); the owner's handlers go to the
// connection's record on success.
type dialRec struct {
	e     *Env
	owner cnet.DialOwner // the issuing component's record, defined by its walk
	slot  int            // index in Machine.dials
}

// DialHandlers implements cnet.DialOwner: the half gets the incarnation's
// mailbox wrappers.
func (r *dialRec) DialHandlers() cnet.StreamHandlers { return r.e.hooks.h }

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
		e.p.adoptConn(e, c.(simnet.StreamConn), r.owner.DialHandlers())
	}
	e.p.postCall(call{dr: r, env: e, c: c, err: err})
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
	e.p.postCall(call{tr: r, env: e})
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

	// dgramH keeps the raw component handler of dgramPorts[i], so snapshot
	// restore can rebuild pending mailbox datagram entries.
	dgramH []func(from cnet.NodeID, m cnet.Message) // rebuilt as restored components re-bind their handlers

	// hooks is what this incarnation installs on every connection it
	// adopts: closures over the Env alone, built once by newEnv.
	hooks connHooks // closures over the Env, rebuilt by newEnv
}

// connHooks are an incarnation's shared connection callbacks: the handler
// set that routes simnet's deliveries through the mailbox to the
// component handlers in the connection's record, and the close hook that
// retires the record.
type connHooks struct {
	h      cnet.StreamHandlers
	closed func(cnet.Conn)
}

// newEnv builds the environment of one incarnation, mailbox wrappers
// included.
func newEnv(p *Proc, inc uint64) *Env {
	e := &Env{p: p, inc: inc}
	// All three wrappers are always installed: simnet's delivery schedule
	// does not depend on handler presence, and a wrapper whose component
	// handler is nil posts nothing. A dead incarnation's wrappers find no
	// record (its connections were aborted, or went down with the machine)
	// and post nothing either.
	e.hooks.h = cnet.StreamHandlers{
		OnMessage: func(c cnet.Conn, msg cnet.Message) {
			if r := e.connOf(c); r != nil && r.h.OnMessage != nil {
				p.postCall(call{sfn: r.h.OnMessage, env: e, c: c, m: msg})
			}
		},
		OnClose: func(c cnet.Conn, err error) {
			r := e.connOf(c)
			if r == nil {
				return
			}
			// Off the list before posting: the component's OnClose may run
			// at once and must see the list without this connection. The
			// record waits in the closing queue until it has.
			fn := r.h.OnClose
			if fn == nil {
				p.removeConn(r)
				return
			}
			p.parkConn(r)
			p.postCall(call{rfn: fn, env: e, c: c, err: err})
		},
		OnWritable: func(c cnet.Conn) {
			if r := e.connOf(c); r != nil && r.h.OnWritable != nil {
				p.postCall(call{wfn: r.h.OnWritable, env: e, c: c})
			}
		},
	}
	e.hooks.closed = func(c cnet.Conn) {
		if e.live() {
			p.dropConn(c)
		}
	}
	return e
}

// connOf is Proc.connOf gated on this incarnation being the live one: the
// conn list belongs to whichever incarnation is.
func (e *Env) connOf(c cnet.Conn) *connRec {
	if !e.live() {
		return nil
	}
	return e.p.connOf(c)
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
	e.dgramPorts = append(e.dgramPorts, port)
	e.dgramH = append(e.dgramH, h)
	e.p.m.iface.BindDatagram(port, func(from cnet.NodeID, m cnet.Message) {
		if !e.live() || !e.p.runnable() {
			return
		}
		e.p.postCall(call{dfn: h, env: e, from: from, m: m, port: port})
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
		// accept goes through the ordinary close hook; the record is then
		// already gone and the handlers accept returned have no home.
		e.p.adoptConn(e, c.(simnet.StreamConn), cnet.StreamHandlers{})
		h := accept(c)
		if r := e.p.connOf(c); r != nil {
			r.h = h
		}
		return e.hooks.h
	})
}

// SetConnWord implements cnet.Env. Inside a restore the conn list is not
// built yet: the word waits with the handlers RestoreConn left.
func (e *Env) SetConnWord(c cnet.Conn, w uint64) {
	if !e.live() {
		return
	}
	if rst := e.p.rst; rst != nil {
		if _, own := rst.words[c]; own {
			rst.words[c] = w
		}
	} else if word := e.p.wordOf(c); word != nil {
		*word = w
	}
}

// ConnWord implements cnet.Env.
func (e *Env) ConnWord(c cnet.Conn) uint64 {
	if e.live() {
		if word := e.p.wordOf(c); word != nil {
			return *word
		}
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
