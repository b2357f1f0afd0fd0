// Package simnet is the discrete-event implementation of the cnet
// transport: the stand-in for the paper's cLAN/VIA interconnect plus
// switch, with the fault hooks Mendosus provided on the real testbed.
//
// Fidelity notes — the availability results depend on these distinctions,
// so they are modeled explicitly:
//
//   - Intra-cluster faults (link down, switch down) never affect
//     client-class traffic, mirroring Mendosus's emulation (§5).
//   - An application crash resets its TCP connections immediately (RST),
//     so peers can notice quickly; a *machine* crash leaves peers hanging
//     until the machine reboots (then RSTs), so only heartbeat timeouts
//     can detect it — the paper's membership service exists exactly for
//     this case.
//   - A frozen machine (or hung/stalled process) stops *reading*: stream
//     messages buffer up to a flow-control window and then senders stall,
//     which is what makes PRESS's self-monitoring send queues build up
//     (§4.3); datagrams to it are dropped (socket buffer overflow).
//   - Connecting to a listening port succeeds at TCP level even when the
//     accepting process is hung (listen backlog), which is why FME's HTTP
//     probe observes "connects, but no reply" for a hung server (§4.5).
package simnet

import (
	"math/rand"
	"slices"
	"sort"
	"time"

	"press/internal/cnet"
	"press/internal/metrics"
	"press/internal/sim"
)

// NodeState is the coarse machine state the machine layer mirrors into the
// network.
type NodeState int

const (
	// NodeUp : normal operation.
	NodeUp NodeState = iota
	// NodeDown : machine crashed/powered off. Black hole; RSTs on reboot.
	NodeDown
	// NodeFrozen : machine wedged. Streams buffer, datagrams drop, dials
	// time out; everything resumes when unfrozen.
	NodeFrozen
)

// Config carries the physical parameters of the simulated network.
type Config struct {
	PropDelay  time.Duration // one-way propagation + switching latency
	Bandwidth  float64       // bytes/second per NIC direction
	SynTimeout time.Duration // connect attempts give up after this
	RecvWindow int           // stream messages buffered at a non-reading receiver before senders stall
	DgramSize  int           // default wire size when a send passes size<=0

	// BatchDelivery coalesces a multicast fan-out — same departure
	// instant, same sending link — into one kernel event that drains the
	// whole recipient list, instead of one event per recipient. Handler
	// execution order and the fired-event count are identical to the
	// unbatched schedule (see deliverBatch); only kernel bookkeeping is
	// saved. Off by default so pre-existing campaign captures replay
	// byte-identically; the wide-cluster (scalable) harness enables it.
	BatchDelivery bool
}

// DefaultConfig mirrors the paper's 1 Gb/s cLAN in spirit: latency is tens
// of microseconds, bandwidth is never the bottleneck for the workload.
func DefaultConfig() Config {
	return Config{
		PropDelay:  50 * time.Microsecond,
		Bandwidth:  125e6,
		SynTimeout: 3 * time.Second,
		RecvWindow: 16,
		DgramSize:  64,
	}
}

// Network is the simulated cluster network: a set of interfaces joined by
// one intra-cluster switch, plus an always-up client-access path.
type Network struct {
	sim      *sim.Sim
	cfg      Config //availlint:skipfield cfg construction config, identical across forks
	log      *metrics.Log
	switchUp bool
	ifaces   map[cnet.NodeID]*Iface
	byID     []*Iface            //availlint:skipfield byID dense resolve index derived from ifaces, rebuilt as interfaces attach
	groups   map[string][]*Iface // kept sorted by NodeID for determinism
	aliases  map[cnet.NodeID]cnet.NodeID

	// lossRng drives the gray lossy-link drop decisions. It is consumed
	// ONLY while some interface is lossy, so runs without gray faults
	// replay byte-identically against pre-gray captures.
	lossRng *rand.Rand

	// Free lists for in-flight delivery records. Every datagram, stream
	// message and dial handshake used to capture its state in a fresh
	// closure handed to the kernel — at packet rate, the dominant
	// allocation in a campaign. Delivery state now lives in recycled
	// records dispatched through sim.AtArg, so the steady-state cost of
	// a hop is zero allocations. The lists are bounded (cnet.MsgPool), so
	// the boot storm's high-water is not kept.
	dgramFree  cnet.MsgPool[dgramPkt]
	streamFree cnet.MsgPool[streamPkt]
	dialFree   cnet.MsgPool[dialOp]
	batchFree  cnet.MsgPool[batchPkt]

	// pairFree recycles connection-pair allocations. A pair returns here
	// once both halves are closed and no scheduled event or mailbox entry
	// references either half (each half's refs pin count) — at dial rate,
	// the connPair was the dominant allocation of a campaign. Halves
	// rebuilt from a snapshot are born without a pair backlink and are
	// simply never recycled.
	pairFree cnet.MsgPool[connPair]
}

// New creates an empty network.
func New(s *sim.Sim, cfg Config, log *metrics.Log) *Network {
	if cfg.PropDelay <= 0 {
		cfg.PropDelay = DefaultConfig().PropDelay
	}
	if cfg.Bandwidth <= 0 {
		cfg.Bandwidth = DefaultConfig().Bandwidth
	}
	if cfg.SynTimeout <= 0 {
		cfg.SynTimeout = DefaultConfig().SynTimeout
	}
	if cfg.RecvWindow <= 0 {
		cfg.RecvWindow = DefaultConfig().RecvWindow
	}
	if cfg.DgramSize <= 0 {
		cfg.DgramSize = DefaultConfig().DgramSize
	}
	return &Network{
		sim:      s,
		cfg:      cfg,
		log:      log,
		switchUp: true,
		ifaces:   make(map[cnet.NodeID]*Iface),
		groups:   make(map[string][]*Iface),
		aliases:  make(map[cnet.NodeID]cnet.NodeID),
		lossRng:  s.NewRand("simnet/loss"),
	}
}

// SetAlias points the virtual address `vip` at `target` — the IP-takeover
// primitive behind redundant front-end pairs: traffic addressed to the
// vip is delivered to whoever currently holds it. Passing target ==
// cnet.None clears the alias.
func (n *Network) SetAlias(vip, target cnet.NodeID) {
	if _, taken := n.ifaces[vip]; taken {
		panic("simnet: alias collides with a real node")
	}
	if target == cnet.None {
		delete(n.aliases, vip)
		return
	}
	n.aliases[vip] = target
}

// denseIDCap bounds the dense resolve index: node ids below it resolve
// through a slice lookup instead of a map probe. The harness id layout
// (servers from 0, front-ends from 10000, client at 1000) sits entirely
// under it; an exotic id beyond the cap still resolves via the map.
const denseIDCap = 1 << 14

// resolve maps a possibly-virtual address to the real interface.
func (n *Network) resolve(id cnet.NodeID) *Iface {
	if len(n.aliases) != 0 {
		if t, ok := n.aliases[id]; ok {
			id = t
		}
	}
	if uint64(id) < uint64(len(n.byID)) {
		return n.byID[id]
	}
	return n.ifaces[id]
}

// Sim returns the simulator driving this network.
func (n *Network) Sim() *sim.Sim { return n.sim }

// Config returns the network parameters.
func (n *Network) Config() Config { return n.cfg }

// SetSwitch raises or drops the intra-cluster switch. Client traffic is
// unaffected (see package doc).
func (n *Network) SetSwitch(up bool) { n.switchUp = up }

// SwitchUp reports the switch state.
func (n *Network) SwitchUp() bool { return n.switchUp }

// AddIface attaches a new interface for node id. It panics on duplicates —
// topology is fixed at experiment construction time.
func (n *Network) AddIface(id cnet.NodeID) *Iface {
	if _, dup := n.ifaces[id]; dup {
		panic("simnet: duplicate iface")
	}
	ifc := &Iface{
		net:    n,
		id:     id,
		state:  NodeUp,
		linkUp: true,
	}
	n.ifaces[id] = ifc
	if id >= 0 && id < denseIDCap {
		if int(id) >= len(n.byID) {
			grown := make([]*Iface, id+1)
			copy(grown, n.byID)
			n.byID = grown
		}
		n.byID[id] = ifc
	}
	return ifc
}

// Iface returns the interface of node id, or nil.
func (n *Network) Iface(id cnet.NodeID) *Iface { return n.ifaces[id] }

// pathUp reports whether traffic of the given class can flow from a to b
// right now. Same-node (loopback) traffic bypasses the fabric entirely.
func (n *Network) pathUp(a, b *Iface, class cnet.Class) bool {
	if b.state == NodeDown || a.state == NodeDown {
		return false
	}
	if a == b {
		return true
	}
	if class == cnet.ClassIntra {
		return a.linkUp && b.linkUp && n.switchUp
	}
	return true
}

// Iface is one node's attachment to the network. All methods must be
// called from simulator context (single-threaded).
type Iface struct {
	net        *Network //availlint:skipfield net owner backlink, set when the interface is attached
	id         cnet.NodeID
	state      NodeState
	linkUp     bool
	sendFreeAt time.Duration

	// Gray lossy-link degradation (faults.LinkLossy): intra-cluster
	// datagrams crossing this interface are dropped with probability
	// lossDrop and delayed by lossLat per traversal. Zero when healthy;
	// the hot path tests lossDrop/lossLat only, no rng draw.
	lossDrop float64
	lossLat  time.Duration

	// A node serves a handful of ports, named by constants: every datagram
	// and every dial finds its handler by comparing a few strings, which
	// costs less than hashing one.
	dgram     []binding[func(from cnet.NodeID, m cnet.Message)] // rebuilt as restored components re-bind
	listeners []binding[func(cnet.Conn) cnet.StreamHandlers]    // rebuilt as restored components re-listen
	conns     []*half                                           // local halves of open/zombie conns
}

// binding is what one port is bound to: a datagram handler or a stream
// acceptor.
type binding[F any] struct {
	port string
	fn   F
}

// bound returns what port is bound to in bs, nil when nothing is.
func bound[F any](bs []binding[F], port string) (fn F) {
	for k := range bs {
		if bs[k].port == port {
			return bs[k].fn
		}
	}
	return fn
}

// rebind drops port's binding from bs and, unless unbind is set, binds it
// to fn.
func rebind[F any](bs []binding[F], port string, fn F, unbind bool) []binding[F] {
	bs = slices.DeleteFunc(bs, func(b binding[F]) bool { return b.port == port })
	if !unbind {
		bs = append(bs, binding[F]{port, fn})
	}
	return bs
}

// ID returns the node this interface belongs to.
func (i *Iface) ID() cnet.NodeID { return i.id }

// State returns the mirrored machine state.
func (i *Iface) State() NodeState { return i.state }

// SetLink raises or drops this node's intra-cluster link.
func (i *Iface) SetLink(up bool) { i.linkUp = up }

// LinkUp reports the intra-cluster link state.
func (i *Iface) LinkUp() bool { return i.linkUp }

// SetLossy injects (drop > 0) or repairs (drop <= 0) gray lossy-link
// degradation on this node's intra-cluster link: datagrams crossing it
// are dropped with probability drop, and every traversal (datagram or
// stream) gains extra latency. The link stays administratively up.
func (i *Iface) SetLossy(drop float64, extra time.Duration) {
	if drop <= 0 {
		drop, extra = 0, 0
	}
	i.lossDrop = drop
	i.lossLat = extra
}

// Lossy reports whether the link is in gray degradation.
func (i *Iface) Lossy() bool { return i.lossDrop > 0 }

// SetState mirrors a machine state change into the transport, applying the
// crash/freeze semantics from the package documentation.
func (i *Iface) SetState(s NodeState) {
	prev := i.state
	i.state = s
	switch {
	case s == NodeDown && prev != NodeDown:
		// Machine died: registrations vanish; conns become zombies.
		i.dgram, i.listeners = nil, nil
		for _, h := range i.conns {
			h.zombie = true
			h.paused = true
		}
	case s == NodeUp && prev == NodeDown:
		// Reboot: surviving peers now see RSTs on their old connections.
		old := i.conns
		i.conns = nil
		for _, h := range old {
			h.abortPeer(cnet.ErrReset)
		}
	case s == NodeFrozen:
		for _, h := range append([]*half(nil), i.conns...) {
			h.setPaused(true)
		}
	case s == NodeUp && prev == NodeFrozen:
		// Unpausing drains buffers and can close conns, mutating i.conns:
		// iterate a snapshot.
		for _, h := range append([]*half(nil), i.conns...) {
			if !h.closed && !h.procPaused {
				h.setPaused(false)
			}
		}
	}
}

// BindDatagram registers (or, with nil, removes) the datagram handler for
// a port.
func (i *Iface) BindDatagram(port string, h func(from cnet.NodeID, m cnet.Message)) {
	i.dgram = rebind(i.dgram, port, h, h == nil)
}

// Listen registers (or removes, with nil) the stream acceptor for a port.
func (i *Iface) Listen(port string, accept func(cnet.Conn) cnet.StreamHandlers) {
	i.listeners = rebind(i.listeners, port, accept, accept == nil)
}

// JoinGroup subscribes the interface to a multicast group.
func (i *Iface) JoinGroup(group string) {
	members := i.net.groups[group]
	for _, m := range members {
		if m == i {
			return
		}
	}
	members = append(members, i)
	sort.Slice(members, func(a, b int) bool { return members[a].id < members[b].id })
	i.net.groups[group] = members
}

// serialize accounts NIC transmit time for size bytes and returns the
// departure instant.
func (i *Iface) serialize(size int) time.Duration {
	now := i.net.sim.Now()
	if i.sendFreeAt < now {
		i.sendFreeAt = now
	}
	i.sendFreeAt += time.Duration(float64(size) / i.net.cfg.Bandwidth * float64(time.Second))
	return i.sendFreeAt
}

// Send transmits a datagram. Delivery is best-effort: any broken path or
// non-reading destination drops it silently, like UDP.
func (i *Iface) Send(to cnet.NodeID, class cnet.Class, port string, m cnet.Message, size int) {
	if i.state != NodeUp {
		return
	}
	if size <= 0 {
		size = i.net.cfg.DgramSize
	}
	dst := i.net.resolve(to)
	if dst == nil {
		return
	}
	arrive := i.serialize(size) + i.net.cfg.PropDelay
	i.net.sendDgram(arrive, i, dst, class, port, m)
}

// Multicast transmits a datagram to every group member (intra class). The
// sender does not receive its own multicast.
func (i *Iface) Multicast(group, port string, m cnet.Message, size int) {
	if i.state != NodeUp {
		return
	}
	if size <= 0 {
		size = i.net.cfg.DgramSize
	}
	arrive := i.serialize(size) + i.net.cfg.PropDelay
	members := i.net.groups[group]
	if i.net.cfg.BatchDelivery && len(members) > 2 {
		i.net.sendBatch(arrive, i, port, m, members)
		return
	}
	for _, dst := range members {
		if dst == i {
			continue
		}
		i.net.sendDgram(arrive, i, dst, cnet.ClassIntra, port, m)
	}
}

// batchPkt is a coalesced multicast fan-out in flight: one kernel event
// standing in for len(dsts) per-recipient datagram deliveries. Recycled
// through Network.batchFree.
type batchPkt struct {
	src  *Iface
	port string
	m    cnet.Message
	dsts []*Iface
}

// sendBatch schedules the whole recipient list of a multicast as one
// delivery event. Per-recipient loss decisions are made here, at send
// time — the same point the unbatched path draws them — so the loss-rng
// stream is consumed in the identical order, and a recipient dropped on
// its degraded link never enters the batch (the unbatched path schedules
// no event for it either). The single event carries the earliest
// (loss-undelayed) arrival; per-recipient lossLat skew collapses to the
// batch instant only for gray-degraded recipients, which the scalable
// campaigns this path serves do not combine with batching-sensitive
// assertions — and Faithful runs never take this path at all.
func (n *Network) sendBatch(arrive time.Duration, src *Iface, port string, m cnet.Message, members []*Iface) {
	bp := n.batchFree.Get()
	for _, dst := range members {
		if dst == src {
			continue
		}
		if src.lossDrop > 0 || dst.lossDrop > 0 {
			drop := 1 - (1-src.lossDrop)*(1-dst.lossDrop)
			if n.lossRng.Float64() < drop {
				continue
			}
		}
		bp.dsts = append(bp.dsts, dst)
	}
	if len(bp.dsts) == 0 {
		n.batchFree.Put(bp)
		return
	}
	bp.src, bp.port, bp.m = src, port, m
	n.sim.AtArg(arrive, deliverBatch, bp)
}

// deliverBatch drains a coalesced multicast. Recipients run in ascending
// NodeID order — exactly the order the unbatched path's per-recipient
// events would pop, since those are scheduled back-to-back at one
// instant with consecutive sequence numbers and nothing can interleave
// between them. The collapsed events are added back to the fired counter
// so EventsFired matches the unbatched schedule, which the scale gates
// assert.
func deliverBatch(arg any) {
	bp := arg.(*batchPkt)
	src, port, m := bp.src, bp.port, bp.m
	n := src.net
	n.sim.CountExtraFired(uint64(len(bp.dsts) - 1))
	for k := 0; k < len(bp.dsts); k++ {
		dst := bp.dsts[k]
		bp.dsts[k] = nil
		if !n.pathUp(src, dst, cnet.ClassIntra) || dst.state != NodeUp {
			continue
		}
		if h := bound(dst.dgram, port); h != nil {
			h(src.id, m)
		}
	}
	bp.src, bp.m = nil, nil
	bp.dsts = bp.dsts[:0]
	n.batchFree.Put(bp)
}

// dgramPkt is one datagram in flight; recycled through Network.dgramFree.
type dgramPkt struct {
	src   *Iface
	dst   *Iface
	class cnet.Class
	port  string
	m     cnet.Message
}

func (n *Network) sendDgram(arrive time.Duration, src, dst *Iface, class cnet.Class, port string, m cnet.Message) {
	// Gray lossy-link degradation. Loopback traffic bypasses the fabric
	// (mirroring pathUp) and client-class traffic never crosses the
	// intra-cluster link, so only intra datagrams between distinct nodes
	// are exposed. The rng is consumed only when a lossy endpoint is
	// involved, keeping healthy runs byte-identical.
	if class == cnet.ClassIntra && src != dst && (src.lossDrop > 0 || dst.lossDrop > 0) {
		drop := 1 - (1-src.lossDrop)*(1-dst.lossDrop)
		if n.lossRng.Float64() < drop {
			return // lost on the degraded link, like any UDP drop
		}
		arrive += src.lossLat + dst.lossLat
	}
	p := n.dgramFree.Get()
	p.src, p.dst, p.class, p.port, p.m = src, dst, class, port, m
	n.sim.AtArg(arrive, deliverDgram, p)
}

// deliverDgram is the arrival half of Send/Multicast: path and receiver
// are re-checked at arrival time, exactly as the closure form did.
func deliverDgram(arg any) {
	p := arg.(*dgramPkt)
	src, dst, class, port, m := p.src, p.dst, p.class, p.port, p.m
	n := src.net
	p.src, p.dst, p.m = nil, nil, nil
	n.dgramFree.Put(p)
	if !n.pathUp(src, dst, class) || dst.state != NodeUp {
		return
	}
	if h := bound(dst.dgram, port); h != nil {
		h(src.id, m)
	}
}

// dialOp carries one connection handshake through its scheduled stages;
// recycled through Network.dialFree.
type dialOp struct {
	i     *Iface
	dst   *Iface
	class cnet.Class
	port  string
	err   error          // verdict delivered by dialFail
	local *half          // verdict delivered by dialDone
	owner cnet.DialOwner // hears the verdict
}

func (n *Network) freeDialOp(op *dialOp) {
	*op = dialOp{}
	n.dialFree.Put(op)
}

func (op *dialOp) fail(err error, after time.Duration) {
	op.err = err
	op.i.net.sim.AfterArg(after, dialFail, op)
}

func dialFail(arg any) {
	op := arg.(*dialOp)
	owner, err, n := op.owner, op.err, op.i.net
	n.freeDialOp(op)
	owner.DialResult(nil, err)
}

// Dial is DialFor for a caller with closures and no record.
func (i *Iface) Dial(to cnet.NodeID, class cnet.Class, port string, h cnet.StreamHandlers, result func(cnet.Conn, error)) {
	i.DialFor(to, class, port, &cnet.DialFuncs{H: h, Result: result})
}

// DialFor opens a stream to (to, port) for owner. See cnet.Env.DialFor for
// semantics.
func (i *Iface) DialFor(to cnet.NodeID, class cnet.Class, port string, owner cnet.DialOwner) {
	dst := i.net.resolve(to)
	rtt := 2 * i.net.cfg.PropDelay
	op := i.net.dialFree.Get()
	op.i, op.dst, op.class, op.port, op.owner = i, dst, class, port, owner
	if i.state != NodeUp {
		op.fail(cnet.ErrTimeout, i.net.cfg.SynTimeout)
		return
	}
	if dst == nil || !i.net.pathUp(i, dst, class) || dst.state == NodeDown || dst.state == NodeFrozen {
		op.fail(cnet.ErrTimeout, i.net.cfg.SynTimeout)
		return
	}
	accept := bound(dst.listeners, port)
	if accept == nil {
		op.fail(cnet.ErrRefused, rtt)
		return
	}
	// Handshake: completes at TCP level even if the accepting process is
	// busy/hung. Re-check reachability at SYN arrival.
	i.net.sim.AfterArg(i.net.cfg.PropDelay, dialSyn, op)
}

// dialSyn is the SYN-arrival stage of Dial.
func dialSyn(arg any) {
	op := arg.(*dialOp)
	i, dst, n := op.i, op.dst, op.i.net
	if dst.state == NodeDown || dst.state == NodeFrozen || !n.pathUp(i, dst, op.class) {
		op.fail(cnet.ErrTimeout, n.cfg.SynTimeout-n.cfg.PropDelay)
		return
	}
	acceptNow := bound(dst.listeners, op.port)
	if acceptNow == nil {
		op.fail(cnet.ErrRefused, n.cfg.PropDelay)
		return
	}
	// Both halves live in one allocation: a connection's endpoints share
	// a lifetime (the pair is recyclable only once both halves are closed
	// and unpinned), so separate allocations buy nothing.
	pair := n.newPair()
	local, remote := &pair.dialer, &pair.acceptor
	local.iface, local.class = i, uint8(op.class)
	remote.iface, remote.class = dst, uint8(op.class)
	local.peer, remote.peer = remote, local
	local.connIdx = int32(len(i.conns))
	i.conns = append(i.conns, local)
	remote.connIdx = int32(len(dst.conns))
	dst.conns = append(dst.conns, remote)
	remote.router = Direct // an owner that routes its ends elsewhere re-routes inside accept
	remote.h = acceptNow(remote)
	op.local = local
	local.Retain() // pinned by the dialDone event
	n.sim.AfterArg(n.cfg.PropDelay, dialDone, op)
}

// dialDone is the final ACK stage of Dial.
func dialDone(arg any) {
	op := arg.(*dialOp)
	local, owner, n := op.local, op.owner, op.i.net
	n.freeDialOp(op)
	local.router, local.h = Direct, owner.DialHandlers()
	owner.DialResult(local, nil)
	local.Release()
}

// StreamConn is the control surface the machine layer needs on simulated
// connections beyond cnet.Conn: pausing reads while the owning process is
// hung or stalled, abortive close when the process dies, and the owner's
// attachment — its router, its handlers and its word — which live on the
// end itself.
type StreamConn interface {
	cnet.Conn
	// SetPaused stops (true) or resumes (false) reading at this end.
	SetPaused(bool)
	// Abort closes abortively; the peer sees ErrReset.
	Abort()
	// Buffered reports messages waiting unread at this end.
	Buffered() int
	// Handlers returns the component handlers attached to this end: what
	// the accepting side's acceptor or the dialing owner's DialHandlers
	// returned. They do not change afterwards outside a restore.
	Handlers() cnet.StreamHandlers
	// Route makes r carry this end's events; nil makes the end nobody's,
	// and its events are dropped. On an end that has already closed, r's
	// Closed runs at once, so an owner never keeps a dead end. Router
	// returns the end's router.
	Route(r *Router)
	Router() *Router
	// RestoreHandlers re-attaches a restored end to its owner: the router
	// and the handlers, set as given.
	RestoreHandlers(r *Router, h cnet.StreamHandlers)
	// SetOwnerSlot/OwnerSlot stash the owning process's bookkeeping index
	// for this end: its position in the process's conn list, which makes
	// close-time removal O(1). The value is opaque to simnet.
	SetOwnerSlot(int)
	OwnerSlot() int
	// SetWord/Word keep the owner's one word with this end
	// (cnet.Env.SetConnWord). It is zero on a new connection.
	SetWord(uint64)
	Word() uint64
	// Retain/Release pin the connection's backing allocation against
	// pool recycling while a caller-side record (a mailbox entry, a
	// deferred operation) stashes the conn pointer across events. Both
	// are no-ops on connections that are not pool-managed.
	Retain()
	Release()
}

// Router carries a connection end's events to its owner. An end holds a
// pointer to one (StreamConn.Route), shared by every end of that owner:
// Direct calls the end's handlers at once; a simulated process posts the
// event to its mailbox and dispatches the handler from there.
type Router struct {
	// Message delivers the next in-order message.
	Message func(c cnet.Conn, m cnet.Message)
	// Close reports that the peer closed the connection, or reset it; the
	// end has closed. No event follows it.
	Close func(c cnet.Conn, err error)
	// Writable reports window space after a refused TrySend.
	Writable func(c cnet.Conn)
	// Closed reports that the end closed itself (Close, Abort) or was
	// reset by its machine's reboot.
	Closed func(c cnet.Conn)
}

// Direct is the router of ends whose owner is not a simulated process
// (the client generator, tests): every event calls the end's handler, if
// it has one, at once.
var Direct = &Router{
	Message: func(c cnet.Conn, m cnet.Message) {
		if f := c.(*half).h.OnMessage; f != nil {
			f(c, m)
		}
	},
	Close: func(c cnet.Conn, err error) {
		if f := c.(*half).h.OnClose; f != nil {
			f(c, err)
		}
	},
	Writable: func(c cnet.Conn) {
		if f := c.(*half).h.OnWritable; f != nil {
			f(c)
		}
	},
	Closed: func(cnet.Conn) {},
}

// half is one direction-endpoint of a stream connection; cnet.Conn is
// implemented by *half.
type half struct {
	// Field order is deliberate: the flags, counters and pointers every
	// TrySend/deliverStream touches sit in the struct's first cache line;
	// the close/teardown fields live behind them. At N=256 the live-conn
	// mesh far exceeds cache, so lines touched per packet are the cost.
	//
	// Size is deliberate too: a 256-node mesh keeps 65,280 pairs live, so
	// the class and the pending close verdict are stored as one byte each
	// and the owner slot as an int32 in the padding. The owner keeps
	// nothing per end beside it: its router is a pointer shared by all its
	// ends and its word is here — 112 bytes a half, a pair in the 224-byte
	// size class (TestConnPairSize).
	closed     bool
	zombie     bool // machine died; silent until reboot RST
	paused     bool // receiver not reading (freeze/hang/stall)
	procPaused bool // pause requested by the proc layer (vs machine freeze)
	wantWrite  bool
	class      uint8 // cnet.Class
	closeCode  uint8 // cnet.ErrCode of the pending verdict carried to deliverCloseArg
	inTransit  int32
	connIdx    int32 // position in the owning iface's conns list, recomputed as a restore refills it
	refs       int32 //availlint:skipfield refs pin count of scheduled events and mailbox entries; the restored world re-creates its own pins
	ownerSlot  int32 // owning process's index of this half's record (opaque)
	iface      *Iface
	peer       *half
	pair       *connPair           //availlint:skipfield pair pool backlink; snapshot-built halves have none and are never recycled
	h          cnet.StreamHandlers // handlers, re-attached by the owner via RestoreHandlers
	router     *Router             // owner's router, re-attached by the owner via RestoreHandlers
	word       uint64              //availlint:skipfield word the owner's connection word, which the restoring component writes back
	buf        []cnet.Message
}

// connPair is the single allocation backing both halves of a connection.
type connPair struct {
	dialer   half
	acceptor half
}

// newPair takes a connection pair off the free list, or mints one with
// the half→pair backlinks wired (the backlink is what marks a half as
// pool-managed; snapshot-restored halves lack it).
func (n *Network) newPair() *connPair {
	p := n.pairFree.Get()
	p.dialer.pair = p
	p.acceptor.pair = p
	return p
}

// Retain pins this half against recycling: every scheduled kernel event
// and every mailbox entry that stashes a conn pointer takes a pin and
// drops it when the reference dies. A no-op on unpooled halves.
func (hc *half) Retain() {
	if hc.pair != nil {
		hc.refs++
	}
}

// Release drops a Retain pin and recycles the pair if this was the last
// thing keeping it alive.
func (hc *half) Release() {
	if hc.pair == nil {
		return
	}
	hc.refs--
	hc.maybeRecycle()
}

// maybeRecycle returns the pair to the free list once both halves are
// closed and unpinned. Resetting clears both closed flags, so a second
// call on a recycled pair is inert until the pair is reused.
func (hc *half) maybeRecycle() {
	p := hc.pair
	if p == nil {
		return
	}
	if !p.dialer.closed || !p.acceptor.closed || p.dialer.refs != 0 || p.acceptor.refs != 0 {
		return
	}
	net := hc.iface.net
	*p = connPair{}
	p.dialer.pair = p
	p.acceptor.pair = p
	net.pairFree.Put(p)
}

var _ cnet.Conn = (*half)(nil)

// Peer returns the node at the other end.
func (hc *half) Peer() cnet.NodeID {
	if hc.peer == nil {
		return cnet.None
	}
	return hc.peer.iface.id
}

// TrySend implements cnet.Conn.
func (hc *half) TrySend(m cnet.Message, size int) bool {
	if hc.closed || hc.zombie || hc.peer == nil {
		return true // dropped; death is reported via OnClose
	}
	p := hc.peer
	if p.closed {
		return true
	}
	if p.paused && len(p.buf)+int(p.inTransit) >= hc.iface.net.cfg.RecvWindow {
		hc.wantWrite = true
		return false
	}
	if size <= 0 {
		size = hc.iface.net.cfg.DgramSize
	}
	net := hc.iface.net
	arrive := hc.iface.serialize(size) + net.cfg.PropDelay
	// A lossy link delays streams rather than dropping them: TCP
	// retransmits, and the retransmission cost surfaces as latency.
	if cnet.Class(hc.class) == cnet.ClassIntra && hc.iface != p.iface {
		arrive += hc.iface.lossLat + p.iface.lossLat
	}
	p.inTransit++
	pkt := net.streamFree.Get()
	pkt.from, pkt.to, pkt.m = hc, p, m
	hc.Retain() // both halves pinned by the in-flight message
	p.Retain()
	net.sim.AtArg(arrive, deliverStream, pkt)
	return true
}

// streamPkt is one stream message in flight; recycled through
// Network.streamFree.
type streamPkt struct {
	from *half
	to   *half
	m    cnet.Message
}

// deliverStream is the arrival half of TrySend.
func deliverStream(arg any) {
	pkt := arg.(*streamPkt)
	hc, p, m := pkt.from, pkt.to, pkt.m
	net := hc.iface.net
	pkt.from, pkt.to, pkt.m = nil, nil, nil
	net.streamFree.Put(pkt)
	p.inTransit--
	// Drop the in-flight pins before touching handler state. When either
	// half is still open the releases cannot recycle (recycle needs both
	// halves closed), so the reads below stay valid; when both are closed
	// we return without reading anything further.
	dead := p.closed || p.zombie || hc.closed
	hc.Release()
	p.Release()
	if dead {
		return
	}
	if !net.pathUp(hc.iface, p.iface, cnet.Class(hc.class)) { //availlint:allow poolsafety open half pins the pair: recycle needs both halves closed, dead-check above covers that
		// Path broke while in flight; TCP would retransmit until the
		// path heals or the connection errors. We drop: every
		// protocol in this repo treats streams as unreliable across
		// fault boundaries and resynchronizes on reconnect.
		return
	}
	if p.paused { //availlint:allow poolsafety open half pins the pair past the Release above
		p.buf = append(p.buf, m) //availlint:allow poolsafety open half pins the pair past the Release above
		return
	}
	if r := p.router; r != nil { //availlint:allow poolsafety open half pins the pair past the Release above
		r.Message(p, m)
	}
}

// Close implements cnet.Conn: orderly shutdown, peer sees ErrClosed.
func (hc *half) Close() { hc.shutdown(cnet.ErrClosed) }

// Abort closes the connection abortively: the peer sees ErrReset now.
// The machine layer uses it when a process (not the whole machine) dies.
func (hc *half) Abort() { hc.shutdown(cnet.ErrReset) }

// Handlers implements StreamConn.
func (hc *half) Handlers() cnet.StreamHandlers { return hc.h }

// Route implements StreamConn. A dialer end can reach its owner already
// closed: when the accepting side sheds the connection inside dialSyn, the
// close notification is scheduled ahead of dialDone. No close path will
// run again for such an end, so Closed runs here — otherwise the owner
// would list it forever, past the pair's recycling and reuse.
func (hc *half) Route(r *Router) {
	hc.router = r
	if hc.closed && r != nil {
		r.Closed(hc)
	}
}

// Router implements StreamConn.
func (hc *half) Router() *Router { return hc.router }

// RestoreHandlers implements StreamConn.
func (hc *half) RestoreHandlers(r *Router, h cnet.StreamHandlers) { hc.router, hc.h = r, h }

// SetOwnerSlot implements StreamConn.
func (hc *half) SetOwnerSlot(i int) { hc.ownerSlot = int32(i) }

// OwnerSlot implements StreamConn.
func (hc *half) OwnerSlot() int { return int(hc.ownerSlot) }

// SetWord implements StreamConn.
func (hc *half) SetWord(w uint64) { hc.word = w }

// Word implements StreamConn.
func (hc *half) Word() uint64 { return hc.word }

// closedSelf tells the owner that this end closed itself.
func (hc *half) closedSelf() {
	if r := hc.router; r != nil {
		r.Closed(hc)
	}
}

func (hc *half) shutdown(peerErr error) {
	if hc.closed {
		return
	}
	hc.closed = true
	hc.buf = nil
	hc.closedSelf()
	hc.iface.dropConn(hc)
	p := hc.peer
	if p == nil || p.closed || p.zombie {
		hc.maybeRecycle()
		return
	}
	p.closeCode = uint8(cnet.ErrCode(peerErr))
	p.Retain() // pinned by the close notification in flight
	net := hc.iface.net
	net.sim.AfterArg(net.cfg.PropDelay, deliverCloseArg, p)
}

// abortPeer delivers an immediate reset to the peer half (reboot RST).
func (hc *half) abortPeer(err error) {
	hc.closed = true
	hc.buf = nil
	hc.closedSelf()
	p := hc.peer
	if p == nil || p.closed || p.zombie {
		hc.maybeRecycle()
		return
	}
	p.closeCode = uint8(cnet.ErrCode(err))
	p.Retain() // pinned by the close notification in flight
	net := hc.iface.net
	net.sim.AfterArg(net.cfg.PropDelay, deliverCloseArg, p)
}

// deliverCloseArg is the scheduled arrival of a peer's close: only the
// peer half ever schedules it, at most once (its own closed guard), so
// the pending verdict can ride on the target half itself.
func deliverCloseArg(arg any) {
	p := arg.(*half)
	p.deliverClose(cnet.ErrFromCode(uint64(p.closeCode)))
	p.Release() // pin taken when the notification was scheduled
}

func (hc *half) deliverClose(err error) {
	if hc.closed {
		return
	}
	hc.closed = true
	hc.buf = nil
	hc.iface.dropConn(hc)
	if r := hc.router; r != nil {
		r.Close(hc, err)
	}
}

// SetPaused is called by the proc layer when the owning process stops or
// resumes reading.
func (hc *half) SetPaused(paused bool) {
	hc.procPaused = paused
	// Machine freeze dominates a proc-level resume.
	if !paused && hc.iface.state == NodeFrozen {
		return
	}
	hc.setPaused(paused)
}

func (hc *half) setPaused(paused bool) {
	if hc.paused == paused {
		return
	}
	hc.paused = paused
	if paused || hc.closed || hc.zombie {
		return
	}
	// Drain buffered messages in order, then wake a stalled writer. The
	// backing array is handed back for reuse when the drain left no new
	// buffer behind (an OnMessage may have re-paused and re-buffered).
	buf := hc.buf
	hc.buf = nil
	for i, m := range buf {
		buf[i] = nil
		if r := hc.router; r != nil {
			r.Message(hc, m)
		}
	}
	if hc.buf == nil && !hc.closed && buf != nil {
		hc.buf = buf[:0]
	}
	hc.notifyWritable()
}

func (hc *half) notifyWritable() {
	p := hc.peer
	if p == nil || !p.wantWrite || p.closed {
		return
	}
	p.wantWrite = false
	p.Retain() // pinned by the writable notification in flight
	net := hc.iface.net
	net.sim.AfterArg(net.cfg.PropDelay, deliverWritable, p)
}

// deliverWritable is the arrival half of notifyWritable.
func deliverWritable(arg any) {
	p := arg.(*half)
	if r := p.router; r != nil && !p.closed {
		r.Writable(p)
	}
	p.Release() // pin taken when the notification was scheduled
}

// Buffered returns how many stream messages wait unread at this half.
func (hc *half) Buffered() int { return len(hc.buf) }

func (i *Iface) dropConn(hc *half) {
	// The half carries its own position, so removal is O(1) regardless of
	// how many conns the interface holds (the workload node holds one per
	// in-flight request). Swap-remove keeps the list compact and
	// deterministic; a stale index (the machine died and the list was
	// cleared wholesale) is a no-op.
	k := int(hc.connIdx)
	if k < 0 || k >= len(i.conns) || i.conns[k] != hc {
		return
	}
	last := len(i.conns) - 1
	i.conns[k] = i.conns[last]
	i.conns[k].connIdx = int32(k)
	i.conns[last] = nil
	i.conns = i.conns[:last]
}
