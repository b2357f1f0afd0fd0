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
	"math"
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

// The physical parameters of the simulated network mirror the paper's
// 1 Gb/s cLAN in spirit: latency is tens of microseconds, bandwidth is
// never the bottleneck for the workload.
const (
	PropDelay  = 50 * time.Microsecond // one-way propagation + switching latency
	bandwidth  = 125e6                 // bytes/second per NIC direction
	synTimeout = 3 * time.Second       // connect attempts give up after this
	recvWindow = 16                    // stream messages buffered at a non-reading receiver before senders stall
	dgramSize  = 64                    // default wire size when a send passes size<=0
)

// Config selects how the simulated network schedules its deliveries.
type Config struct {
	// BatchDelivery coalesces a multicast fan-out — same departure
	// instant, same sending link — into one kernel event that drains the
	// whole recipient list, instead of one event per recipient. Handler
	// execution order and the fired-event count are identical to the
	// unbatched schedule (see deliverBatch); only kernel bookkeeping is
	// saved. Off by default so pre-existing campaign captures replay
	// byte-identically; the wide-cluster (scalable) harness enables it.
	BatchDelivery bool
}

// DefaultConfig is the unbatched network.
func DefaultConfig() Config { return Config{} }

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
	dialFree   cnet.MsgPool[Dial]
	batchFree  cnet.MsgPool[batchPkt]

	// ports names every port a dial has named, once: a dial record carries
	// its port as an index here instead of a 16-byte string.
	ports []string

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
	return &Network{
		sim:      s,
		cfg:      cfg,
		log:      log,
		switchUp: true,
		ifaces:   make(map[cnet.NodeID]*Iface),
		groups:   make(map[string][]*Iface),
		lossRng:  s.NewRand("simnet/loss"),
	}
}

// denseIDCap bounds the dense resolve index: node ids below it resolve
// through a slice lookup instead of a map probe. The harness id layout
// (servers from 0, front-ends from 10000, client at 1000) sits entirely
// under it; an exotic id beyond the cap still resolves via the map.
const denseIDCap = 1 << 14

// resolve maps a node id to its interface.
func (n *Network) resolve(id cnet.NodeID) *Iface {
	if uint64(id) < uint64(len(n.byID)) {
		return n.byID[id]
	}
	return n.ifaces[id]
}

// Sim returns the simulator driving this network.
func (n *Network) Sim() *sim.Sim { return n.sim }

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
	conns     []*End                                            // local halves of open/zombie conns
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
		for _, h := range append([]*End(nil), i.conns...) {
			h.setPaused(true)
		}
	case s == NodeUp && prev == NodeFrozen:
		// Unpausing drains buffers and can close conns, mutating i.conns:
		// iterate a snapshot.
		for _, h := range append([]*End(nil), i.conns...) {
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
	i.sendFreeAt += time.Duration(float64(size) / bandwidth * float64(time.Second))
	return i.sendFreeAt
}

// Send transmits a datagram. Delivery is best-effort: any broken path or
// non-reading destination drops it silently, like UDP.
func (i *Iface) Send(to cnet.NodeID, class cnet.Class, port string, m cnet.Message, size int) {
	if i.state != NodeUp {
		return
	}
	if size <= 0 {
		size = dgramSize
	}
	dst := i.net.resolve(to)
	if dst == nil {
		return
	}
	arrive := i.serialize(size) + PropDelay
	i.net.sendDgram(arrive, i, dst, class, port, m)
}

// Multicast transmits a datagram to every group member (intra class). The
// sender does not receive its own multicast.
func (i *Iface) Multicast(group, port string, m cnet.Message, size int) {
	if i.state != NodeUp {
		return
	}
	if size <= 0 {
		size = dgramSize
	}
	arrive := i.serialize(size) + PropDelay
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
	n.sim.AdjustFired(int64(len(bp.dsts) - 1))
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

// Dial is one connection handshake, from DialFor until its owner has the
// verdict: carried through the handshake's scheduled stages and, for a
// dial a simulated process issued, on through that process's mailbox. Such
// a dial names the process as its host, which takes the verdict in the
// owner's place and releases the record once the owner has it; any other
// dial's owner hears the verdict at once. One record a dial, 64 bytes
// (TestDialRecordSize), recycled through Network.dialFree.
type Dial struct {
	i     *Iface
	dst   *Iface
	local *End           // the verdict delivered by dialDone; nil for a failure
	owner cnet.DialOwner // the issuing component's record
	host  DialHost       // the issuing process; nil when owner hears the verdict itself
	slot  int32          // the host's index of the record (opaque to simnet)
	port  uint16         // the port's index in Network.ports
	class uint8          // cnet.Class
	err   uint8          // cnet.ErrCode of the verdict delivered by dialFail
}

// DialHost is the simulated process a dial was issued from.
type DialHost interface {
	// Live reports whether the issuing incarnation still runs: a dead one's
	// connection gets no handlers.
	Live() bool
	// Dialed takes the dial's verdict (Conn, ErrCode) in the owner's place.
	Dialed(d *Dial)
}

// Owner returns the component record the dial is for.
func (d *Dial) Owner() cnet.DialOwner { return d.owner }

// Conn returns the connection a successful dial delivers, nil for a
// failed one.
func (d *Dial) Conn() *End { return d.local }

// ErrCode returns the cnet.ErrCode of the verdict: 0 for a connection.
func (d *Dial) ErrCode() uint8 { return d.err }

// SetSlot and Slot stash the host's bookkeeping index for the record: its
// position in the host's list of dials, which makes release O(1).
func (d *Dial) SetSlot(i int) { d.slot = int32(i) }

// Slot returns what SetSlot stashed.
func (d *Dial) Slot() int { return int(d.slot) }

// Release recycles the record once its verdict has reached the owner.
func (d *Dial) Release() {
	n := d.i.net
	*d = Dial{}
	n.dialFree.Put(d)
}

// portID returns port's index in n.ports, naming it there the first time.
func (n *Network) portID(port string) uint16 {
	for k, p := range n.ports {
		if p == port {
			return uint16(k)
		}
	}
	if len(n.ports) > math.MaxUint16 {
		panic("simnet: more than 65,536 dial ports")
	}
	n.ports = append(n.ports, port)
	return uint16(len(n.ports) - 1)
}

func (d *Dial) fail(err error, after time.Duration) {
	d.err = uint8(cnet.ErrCode(err))
	d.i.net.sim.AfterArg(after, dialFail, d)
}

// verdict hands the dial's verdict to its host, or to its owner and
// recycles the record.
func (d *Dial) verdict() {
	if d.host != nil {
		d.host.Dialed(d)
		return
	}
	owner, err := d.owner, cnet.ErrFromCode(uint64(d.err))
	var c cnet.Conn // a failed dial's result is an untyped nil
	if d.local != nil {
		c = d.local
	}
	d.Release()
	owner.DialResult(c, err)
}

func dialFail(arg any) { arg.(*Dial).verdict() }

// Dial is DialFor for a caller with closures and no record.
func (i *Iface) Dial(to cnet.NodeID, class cnet.Class, port string, h cnet.StreamHandlers, result func(cnet.Conn, error)) {
	i.DialFor(to, class, port, &cnet.DialFuncs{H: h, Result: result})
}

// DialFor opens a stream to (to, port) for owner. See cnet.Env.DialFor for
// semantics.
func (i *Iface) DialFor(to cnet.NodeID, class cnet.Class, port string, owner cnet.DialOwner) {
	i.HostDial(nil, to, class, port, owner)
}

// HostDial is DialFor for a dial host issues: the host takes the verdict
// (DialHost.Dialed) and releases the returned record once owner has it.
func (i *Iface) HostDial(host DialHost, to cnet.NodeID, class cnet.Class, port string, owner cnet.DialOwner) *Dial {
	dst := i.net.resolve(to)
	rtt := 2 * PropDelay
	d := i.net.dialFree.Get()
	d.i, d.dst, d.class, d.port, d.owner, d.host = i, dst, uint8(class), i.net.portID(port), owner, host
	switch {
	case i.state != NodeUp:
		d.fail(cnet.ErrTimeout, synTimeout)
	case dst == nil || !i.net.pathUp(i, dst, class) || dst.state == NodeDown || dst.state == NodeFrozen:
		d.fail(cnet.ErrTimeout, synTimeout)
	case bound(dst.listeners, port) == nil:
		d.fail(cnet.ErrRefused, rtt)
	default:
		// Handshake: completes at TCP level even if the accepting process
		// is busy/hung. Re-check reachability at SYN arrival.
		i.net.sim.AfterArg(PropDelay, dialSyn, d)
	}
	return d
}

// dialSyn is the SYN-arrival stage of Dial.
func dialSyn(arg any) {
	d := arg.(*Dial)
	i, dst, n := d.i, d.dst, d.i.net
	if dst.state == NodeDown || dst.state == NodeFrozen || !n.pathUp(i, dst, cnet.Class(d.class)) {
		d.fail(cnet.ErrTimeout, synTimeout-PropDelay)
		return
	}
	acceptNow := bound(dst.listeners, n.ports[d.port])
	if acceptNow == nil {
		d.fail(cnet.ErrRefused, PropDelay)
		return
	}
	// Both halves live in one allocation: a connection's endpoints share
	// a lifetime (the pair is recyclable only once both halves are closed
	// and unpinned), so separate allocations buy nothing.
	pair := n.newPair()
	local, remote := &pair.dialer, &pair.acceptor
	local.iface, local.class = i, d.class
	remote.iface, remote.class = dst, d.class
	local.peer, remote.peer = remote, local
	local.connIdx = int32(len(i.conns))
	i.conns = append(i.conns, local)
	remote.connIdx = int32(len(dst.conns))
	dst.conns = append(dst.conns, remote)
	remote.router = Direct // an owner that routes its ends elsewhere re-routes inside accept
	remote.h = acceptNow(remote)
	d.local = local
	local.Retain() // pinned by the dialDone event
	n.sim.AfterArg(PropDelay, dialDone, d)
}

// dialDone is the final ACK stage of Dial: the connection gets the owner's
// handlers, unless its issuing incarnation has died.
func dialDone(arg any) {
	d := arg.(*Dial)
	local := d.local
	local.router = Direct
	if d.host == nil || d.host.Live() {
		local.h = d.owner.DialHandlers()
	}
	d.verdict()
	local.Release()
}

// Router carries a connection end's events to its owner. An end holds a
// pointer to one (End.Route), shared by every end of that owner: Direct
// calls the end's handlers at once; a simulated process posts the event
// to its mailbox and dispatches the handler from there.
type Router struct {
	// Message delivers the next in-order message.
	Message func(c *End, m cnet.Message)
	// Close reports that the peer closed the connection, or reset it; the
	// end has closed. No event follows it.
	Close func(c *End, err error)
	// Writable reports window space after a refused TrySend.
	Writable func(c *End)
	// Closed reports that the end closed itself (Close, Abort) or was
	// reset by its machine's reboot.
	Closed func(c *End)
}

// Direct is the router of ends whose owner is not a simulated process
// (the client generator, tests): every event calls the end's handler, if
// it has one, at once.
var Direct = &Router{
	Message: func(c *End, m cnet.Message) {
		if f := c.h.OnMessage; f != nil {
			f(c, m)
		}
	},
	Close: func(c *End, err error) {
		if f := c.h.OnClose; f != nil {
			f(c, err)
		}
	},
	Writable: func(c *End) {
		if f := c.h.OnWritable; f != nil {
			f(c)
		}
	},
	Closed: func(*End) {},
}

// End is one direction-endpoint of a stream connection: the cnet.Conn a
// component holds, and the whole of its owner's record of it — router,
// handlers, word and owner slot live here. The machine layer holds ends by
// this concrete pointer: pausing reads while the owning process is hung or
// stalled, abortive close when the process dies, and the owner's
// attachment are its methods.
type End struct {
	// Field order is deliberate: the flags, counters and pointers every
	// TrySend/deliverStream touches sit in the struct's first cache line;
	// the close/teardown fields live behind them. At N=256 the live-conn
	// mesh far exceeds cache, so lines touched per packet are the cost.
	//
	// Size is deliberate too: a 256-node mesh keeps 65,280 pairs live, so
	// the class and the pending close verdict are stored as one byte each
	// and the owner slot as an int32 in the padding. The owner keeps
	// nothing per end beside it: its router is a pointer shared by all its
	// ends and its word is here. The receive buffer, which only an end
	// whose reader stopped ever fills, is out of line: 96 bytes an end, a
	// pair in the 192-byte size class (TestConnPairSize).
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
	ownerSlot  int32 // owning process's index of this end's record (opaque)
	iface      *Iface
	peer       *End
	pair       *connPair           //availlint:skipfield pair pool backlink; snapshot-built ends have none and are never recycled
	h          cnet.StreamHandlers // handlers, re-attached by the owner via RestoreHandlers
	router     *Router             // owner's router, re-attached by the owner via RestoreHandlers
	word       uint64              //availlint:skipfield word the owner's connection word, which the restoring component writes back
	// buf holds the messages that arrived while the end was paused, in
	// order. It is made the first time the end buffers and then kept,
	// emptied, across drains, closes and the pair's recycling.
	buf *[]cnet.Message
}

// connPair is the single allocation backing both halves of a connection.
type connPair struct {
	dialer   End
	acceptor End
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
func (hc *End) Retain() {
	if hc.pair != nil {
		hc.refs++
	}
}

// Release drops a Retain pin and recycles the pair if this was the last
// thing keeping it alive.
func (hc *End) Release() {
	if hc.pair == nil {
		return
	}
	hc.refs--
	hc.maybeRecycle()
}

// maybeRecycle returns the pair to the free list once both halves are
// closed and unpinned. Resetting clears both closed flags, so a second
// call on a recycled pair is inert until the pair is reused. The ends'
// receive buffers, emptied when they closed, stay with the pair.
func (hc *End) maybeRecycle() {
	p := hc.pair
	if p == nil {
		return
	}
	if !p.dialer.closed || !p.acceptor.closed || p.dialer.refs != 0 || p.acceptor.refs != 0 {
		return
	}
	net := hc.iface.net
	dbuf, abuf := p.dialer.buf, p.acceptor.buf
	*p = connPair{}
	p.dialer.pair, p.dialer.buf = p, dbuf
	p.acceptor.pair, p.acceptor.buf = p, abuf
	net.pairFree.Put(p)
}

var _ cnet.Conn = (*End)(nil)

// Peer returns the node at the other end.
func (hc *End) Peer() cnet.NodeID {
	if hc.peer == nil {
		return cnet.None
	}
	return hc.peer.iface.id
}

// TrySend implements cnet.Conn.
func (hc *End) TrySend(m cnet.Message, size int) bool {
	if hc.closed || hc.zombie || hc.peer == nil {
		return true // dropped; death is reported via OnClose
	}
	p := hc.peer
	if p.closed {
		return true
	}
	if p.paused && p.Buffered()+int(p.inTransit) >= recvWindow {
		hc.wantWrite = true
		return false
	}
	if size <= 0 {
		size = dgramSize
	}
	net := hc.iface.net
	arrive := hc.iface.serialize(size) + PropDelay
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
	from *End
	to   *End
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
	// From here on an open half pins the pair past the Releases above:
	// recycling needs both halves closed, and the dead check covers that.
	if !net.pathUp(hc.iface, p.iface, cnet.Class(hc.class)) {
		// Path broke while in flight; TCP would retransmit until the
		// path heals or the connection errors. We drop: every
		// protocol in this repo treats streams as unreliable across
		// fault boundaries and resynchronizes on reconnect.
		return
	}
	if p.paused {
		if p.buf == nil {
			p.buf = new([]cnet.Message)
		}
		*p.buf = append(*p.buf, m)
		return
	}
	if r := p.router; r != nil {
		r.Message(p, m)
	}
}

// Close implements cnet.Conn: orderly shutdown, peer sees ErrClosed.
func (hc *End) Close() { hc.shutdown(cnet.ErrClosed) }

// Abort closes the connection abortively: the peer sees ErrReset now.
// The machine layer uses it when a process (not the whole machine) dies.
func (hc *End) Abort() { hc.shutdown(cnet.ErrReset) }

// Handlers returns the component handlers attached to this end: what the
// accepting side's acceptor or the dialing owner's DialHandlers returned.
// They do not change afterwards outside a restore.
func (hc *End) Handlers() cnet.StreamHandlers { return hc.h }

// Route makes r carry this end's events; nil makes the end nobody's, and
// its events are dropped. A dialer end can reach its owner already
// closed: when the accepting side sheds the connection inside dialSyn, the
// close notification is scheduled ahead of dialDone. No close path will
// run again for such an end, so r's Closed runs here, at once — otherwise
// the owner would list it forever, past the pair's recycling and reuse.
func (hc *End) Route(r *Router) {
	hc.router = r
	if hc.closed && r != nil {
		r.Closed(hc)
	}
}

// Router returns the end's router.
func (hc *End) Router() *Router { return hc.router }

// RestoreHandlers re-attaches a restored end to its owner: the router and
// the handlers, set as given.
func (hc *End) RestoreHandlers(r *Router, h cnet.StreamHandlers) { hc.router, hc.h = r, h }

// SetOwnerSlot and OwnerSlot stash the owning process's bookkeeping index
// for this end: its position in the process's conn list, which makes
// close-time removal O(1). The value is opaque to simnet.
func (hc *End) SetOwnerSlot(i int) { hc.ownerSlot = int32(i) }

// OwnerSlot returns what SetOwnerSlot stashed.
func (hc *End) OwnerSlot() int { return int(hc.ownerSlot) }

// SetWord keeps the owner's one word with this end
// (cnet.Env.SetConnWord). It is zero on a new connection.
func (hc *End) SetWord(w uint64) { hc.word = w }

// Word returns what SetWord kept.
func (hc *End) Word() uint64 { return hc.word }

// closedSelf tells the owner that this end closed itself.
func (hc *End) closedSelf() {
	if r := hc.router; r != nil {
		r.Closed(hc)
	}
}

func (hc *End) shutdown(peerErr error) {
	if hc.closed {
		return
	}
	hc.closed = true
	hc.dropBuffered()
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
	net.sim.AfterArg(PropDelay, deliverCloseArg, p)
}

// abortPeer delivers an immediate reset to the peer half (reboot RST).
func (hc *End) abortPeer(err error) {
	hc.closed = true
	hc.dropBuffered()
	hc.closedSelf()
	p := hc.peer
	if p == nil || p.closed || p.zombie {
		hc.maybeRecycle()
		return
	}
	p.closeCode = uint8(cnet.ErrCode(err))
	p.Retain() // pinned by the close notification in flight
	net := hc.iface.net
	net.sim.AfterArg(PropDelay, deliverCloseArg, p)
}

// deliverCloseArg is the scheduled arrival of a peer's close: only the
// peer half ever schedules it, at most once (its own closed guard), so
// the pending verdict can ride on the target half itself.
func deliverCloseArg(arg any) {
	p := arg.(*End)
	p.deliverClose(cnet.ErrFromCode(uint64(p.closeCode)))
	p.Release() // pin taken when the notification was scheduled
}

func (hc *End) deliverClose(err error) {
	if hc.closed {
		return
	}
	hc.closed = true
	hc.dropBuffered()
	hc.iface.dropConn(hc)
	if r := hc.router; r != nil {
		r.Close(hc, err)
	}
}

// SetPaused stops (true) or resumes (false) reading at this end: the proc
// layer calls it when the owning process stops or resumes reading.
func (hc *End) SetPaused(paused bool) {
	hc.procPaused = paused
	// Machine freeze dominates a proc-level resume.
	if !paused && hc.iface.state == NodeFrozen {
		return
	}
	hc.setPaused(paused)
}

func (hc *End) setPaused(paused bool) {
	if hc.paused == paused {
		return
	}
	hc.paused = paused
	if paused || hc.closed || hc.zombie {
		return
	}
	// Drain buffered messages in order, then wake a stalled writer. The
	// buffer is off the end while it drains, so a drain an OnMessage
	// starts inside this one (it re-paused and resumed at once) finds
	// nothing left to deliver; it goes back, empty, when the drain ends.
	if buf := hc.buf; buf != nil && len(*buf) > 0 {
		hc.buf = nil
		msgs := *buf
		for i, m := range msgs {
			msgs[i] = nil
			if r := hc.router; r != nil {
				r.Message(hc, m)
			}
		}
		*buf = msgs[:0]
		if hc.buf == nil {
			hc.buf = buf
		}
	}
	hc.notifyWritable()
}

func (hc *End) notifyWritable() {
	p := hc.peer
	if p == nil || !p.wantWrite || p.closed {
		return
	}
	p.wantWrite = false
	p.Retain() // pinned by the writable notification in flight
	net := hc.iface.net
	net.sim.AfterArg(PropDelay, deliverWritable, p)
}

// deliverWritable is the arrival half of notifyWritable.
func deliverWritable(arg any) {
	p := arg.(*End)
	if r := p.router; r != nil && !p.closed {
		r.Writable(p)
	}
	p.Release() // pin taken when the notification was scheduled
}

// Buffered returns how many stream messages wait unread at this end.
func (hc *End) Buffered() int {
	if hc.buf == nil {
		return 0
	}
	return len(*hc.buf)
}

// dropBuffered discards what waits unread at a closing end, keeping the
// buffer for the pair's next connection.
func (hc *End) dropBuffered() {
	if buf := hc.buf; buf != nil {
		clear(*buf)
		*buf = (*buf)[:0]
	}
}

func (i *Iface) dropConn(hc *End) {
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
