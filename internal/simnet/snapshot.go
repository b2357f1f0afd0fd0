package simnet

import (
	"sort"

	"press/internal/cnet"
	"press/internal/snapio"
)

// Snapshot support. The network serializes in three sections:
//
//   - Core (early): switch, aliases, groups, per-interface fault state
//     and NIC serialization clocks, plus each interface's ordered list
//     of attached connection halves — the order matters because conn
//     removal is a swap-remove, so future mutations depend on it.
//   - Pending (late): every in-flight delivery — datagrams, stream
//     messages, dial handshakes, close and writable notifications —
//     claimed from the kernel's pending-event table and re-armed at
//     the exact (time, sequence) they held, so the restored world fires
//     them in the identical order.
//   - Conns (last): the state table of every connection half referenced
//     anywhere in the snapshot. On load, references met before this
//     section produce blank halves (BlankConn) that the table fills.
//
// Handler closures (half.h, close hooks, dial callbacks, dgram and
// listen registrations) are never serialized: the component that owns
// them re-attaches during its own restore, before the conn table and
// pending sections resolve.

// BlankConn is the blank factory for the snapshot connection table.
func BlankConn() any { return new(half) }

// HandlerRestorer lets a connection owner re-attach its stream handlers
// to a restored conn.
type HandlerRestorer interface {
	RestoreHandlers(h cnet.StreamHandlers)
}

// RestoreHandlers implements HandlerRestorer.
func (hc *half) RestoreHandlers(h cnet.StreamHandlers) { hc.h = h }

// DialRestorer is implemented by the owner record a pending dial was
// tagged with (SetNextDialOwner). On load the network asks it for the
// handshake's handlers and result callback.
type DialRestorer interface {
	RestoreDial() (cnet.StreamHandlers, func(cnet.Conn, error))
}

// SaveCore serializes topology-independent network state. Must run
// before component sections so every attached conn half is registered
// in iface order.
func (n *Network) SaveCore(ctx *snapio.Ctx) {
	e := ctx.Enc
	e.Bool(n.switchUp)
	snapio.SaveRand(e, n.lossRng)

	vips := make([]cnet.NodeID, 0, len(n.aliases))
	for v := range n.aliases {
		vips = append(vips, v)
	}
	sort.Slice(vips, func(a, b int) bool { return vips[a] < vips[b] })
	e.Int(len(vips))
	for _, v := range vips {
		e.I64(int64(v))
		e.I64(int64(n.aliases[v]))
	}

	names := make([]string, 0, len(n.groups))
	for g := range n.groups {
		names = append(names, g)
	}
	sort.Strings(names)
	e.Int(len(names))
	for _, g := range names {
		e.Str(g)
		members := n.groups[g]
		e.Int(len(members))
		for _, m := range members {
			e.I64(int64(m.id))
		}
	}

	ids := make([]cnet.NodeID, 0, len(n.ifaces))
	for id := range n.ifaces {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	e.Int(len(ids))
	for _, id := range ids {
		i := n.ifaces[id]
		e.I64(int64(id))
		e.Int(int(i.state))
		e.Bool(i.linkUp)
		e.F64(i.lossDrop)
		e.Dur(i.lossLat)
		e.Dur(i.sendFreeAt)
		e.Int(len(i.conns))
		for _, hc := range i.conns {
			e.U64(ctx.Conns.Ref(hc))
		}
	}
}

// LoadCore restores SaveCore state into a freshly built topology (same
// interfaces, no connections, no groups).
func (n *Network) LoadCore(ctx *snapio.Ctx) {
	d := ctx.Dec
	n.switchUp = d.Bool()
	snapio.LoadRand(d, n.lossRng)

	n.aliases = make(map[cnet.NodeID]cnet.NodeID)
	for k := d.Count(1 << 16); k > 0; k-- {
		v := cnet.NodeID(d.I64())
		n.aliases[v] = cnet.NodeID(d.I64())
	}

	n.groups = make(map[string][]*Iface)
	for k := d.Count(1 << 16); k > 0; k-- {
		g := d.Str()
		members := make([]*Iface, 0, 4)
		for m := d.Count(1 << 16); m > 0; m-- {
			members = append(members, n.mustIface(cnet.NodeID(d.I64())))
		}
		n.groups[g] = members
	}

	nif := d.Count(1 << 16)
	if nif != len(n.ifaces) {
		snapio.Failf("simnet: snapshot has %d ifaces, world has %d", nif, len(n.ifaces))
	}
	for ; nif > 0; nif-- {
		i := n.mustIface(cnet.NodeID(d.I64()))
		i.state = NodeState(d.Int())
		i.linkUp = d.Bool()
		i.lossDrop = d.F64()
		i.lossLat = d.Dur()
		i.sendFreeAt = d.Dur()
		if len(i.conns) != 0 {
			snapio.Failf("simnet: iface %d not virgin at restore", i.id)
		}
		for k := d.Count(1 << 20); k > 0; k-- {
			hc := ctx.Conns.Obj(d.U64()).(*half)
			hc.connIdx = int32(len(i.conns))
			i.conns = append(i.conns, hc)
		}
	}
}

func (n *Network) mustIface(id cnet.NodeID) *Iface {
	i := n.ifaces[id]
	if i == nil {
		snapio.Failf("simnet: snapshot references unknown iface %d", id)
	}
	return i
}

// ifaceID maps an interface to its id for serialization, with None for
// nil (a dial op whose destination did not resolve).
func ifaceID(i *Iface) cnet.NodeID {
	if i == nil {
		return cnet.None
	}
	return i.id
}

func (n *Network) ifaceOrNil(id cnet.NodeID) *Iface {
	if id == cnet.None {
		return nil
	}
	return n.mustIface(id)
}

// SavePending claims and serializes every in-flight network delivery.
// Must run after the owner sections so dial owners resolve, and before
// SaveConns so packet-referenced halves make it into the table.
func (n *Network) SavePending(ctx *snapio.Ctx) {
	e := ctx.Enc

	dgrams := ctx.ClaimArg(deliverDgram)
	e.Int(len(dgrams))
	for _, ev := range dgrams {
		p := ev.Arg.(*dgramPkt)
		e.Dur(ev.At)
		e.U64(ev.Seq)
		e.I64(int64(p.src.id))
		e.I64(int64(p.dst.id))
		e.Int(int(p.class))
		e.Str(p.port)
		ctx.Msgs.Encode(e, p.m)
	}

	batches := ctx.ClaimArg(deliverBatch)
	e.Int(len(batches))
	for _, ev := range batches {
		p := ev.Arg.(*batchPkt)
		e.Dur(ev.At)
		e.U64(ev.Seq)
		e.I64(int64(p.src.id))
		e.Str(p.port)
		ctx.Msgs.Encode(e, p.m)
		e.Int(len(p.dsts))
		for _, dst := range p.dsts {
			e.I64(int64(dst.id))
		}
	}

	streams := ctx.ClaimArg(deliverStream)
	e.Int(len(streams))
	for _, ev := range streams {
		p := ev.Arg.(*streamPkt)
		e.Dur(ev.At)
		e.U64(ev.Seq)
		e.U64(ctx.Conns.Ref(p.from))
		e.U64(ctx.Conns.Ref(p.to))
		ctx.Msgs.Encode(e, p.m)
	}

	saveDials := func(evs []snapio.PendingEvent) {
		e.Int(len(evs))
		for _, ev := range evs {
			op := ev.Arg.(*dialOp)
			if op.owner == nil {
				snapio.Failf("simnet: in-flight dial to %d port %q has no owner tag", ifaceID(op.dst), op.port)
			}
			if _, ok := ctx.Owners.Lookup(op.owner); !ok {
				snapio.Failf("simnet: dial owner %T not registered in snapshot", op.owner)
			}
			e.Dur(ev.At)
			e.U64(ev.Seq)
			e.I64(int64(op.i.id))
			e.I64(int64(ifaceID(op.dst)))
			e.Int(int(op.class))
			e.Str(op.port)
			e.U64(cnet.ErrCode(op.err))
			// op.local is nil until the syn stage runs; a typed nil must not
			// enter the ref table.
			var localRef uint64
			if op.local != nil {
				localRef = ctx.Conns.Ref(op.local)
			}
			e.U64(localRef)
			id, _ := ctx.Owners.Lookup(op.owner)
			e.U64(id)
		}
	}
	saveDials(ctx.ClaimArg(dialSyn))
	saveDials(ctx.ClaimArg(dialDone))
	saveDials(ctx.ClaimArg(dialFail))

	closes := ctx.ClaimArg(deliverCloseArg)
	e.Int(len(closes))
	for _, ev := range closes {
		e.Dur(ev.At)
		e.U64(ev.Seq)
		e.U64(ctx.Conns.Ref(ev.Arg.(*half)))
	}

	writables := ctx.ClaimArg(deliverWritable)
	e.Int(len(writables))
	for _, ev := range writables {
		e.Dur(ev.At)
		e.U64(ev.Seq)
		e.U64(ctx.Conns.Ref(ev.Arg.(*half)))
	}
}

// LoadPending re-arms the deliveries saved by SavePending at their
// pinned (time, sequence) slots. Must run after owner sections (dial
// owners registered) and after LoadConns on the decode side ordering
// used by the harness — the conn objects it references are resolved
// through the table either way.
func (n *Network) LoadPending(ctx *snapio.Ctx) {
	d := ctx.Dec

	for k := d.Count(1 << 24); k > 0; k-- {
		at := d.Dur()
		seq := d.U64()
		p := &dgramPkt{
			src:   n.mustIface(cnet.NodeID(d.I64())),
			dst:   n.mustIface(cnet.NodeID(d.I64())),
			class: cnet.Class(d.Int()),
			port:  d.Str(),
		}
		p.m = ctx.Msgs.Decode(d)
		n.sim.RestoreAtArg(at, seq, deliverDgram, p)
	}

	for k := d.Count(1 << 24); k > 0; k-- {
		at := d.Dur()
		seq := d.U64()
		p := &batchPkt{
			src:  n.mustIface(cnet.NodeID(d.I64())),
			port: d.Str(),
		}
		p.m = ctx.Msgs.Decode(d)
		nd := d.Count(1 << 20)
		p.dsts = make([]*Iface, 0, nd)
		for ; nd > 0; nd-- {
			p.dsts = append(p.dsts, n.mustIface(cnet.NodeID(d.I64())))
		}
		n.sim.RestoreAtArg(at, seq, deliverBatch, p)
	}

	for k := d.Count(1 << 24); k > 0; k-- {
		at := d.Dur()
		seq := d.U64()
		p := &streamPkt{
			from: ctx.Conns.Obj(d.U64()).(*half),
			to:   ctx.Conns.Obj(d.U64()).(*half),
		}
		p.m = ctx.Msgs.Decode(d)
		n.sim.RestoreAtArg(at, seq, deliverStream, p)
	}

	loadDials := func(stage func(any)) {
		for k := d.Count(1 << 24); k > 0; k-- {
			at := d.Dur()
			seq := d.U64()
			op := new(dialOp)
			op.i = n.mustIface(cnet.NodeID(d.I64()))
			op.dst = n.ifaceOrNil(cnet.NodeID(d.I64()))
			op.class = cnet.Class(d.Int())
			op.port = d.Str()
			op.err = cnet.ErrFromCode(d.U64())
			if local := ctx.Conns.Obj(d.U64()); local != nil {
				op.local = local.(*half)
			}
			owner := ctx.Owners.Obj(d.U64())
			dr, ok := owner.(DialRestorer)
			if !ok {
				snapio.Failf("simnet: dial owner %T cannot restore a dial", owner)
			}
			op.h, op.result = dr.RestoreDial()
			op.owner = owner
			n.sim.RestoreAtArg(at, seq, stage, op)
		}
	}
	loadDials(dialSyn)
	loadDials(dialDone)
	loadDials(dialFail)

	for k := d.Count(1 << 24); k > 0; k-- {
		at := d.Dur()
		seq := d.U64()
		n.sim.RestoreAtArg(at, seq, deliverCloseArg, ctx.Conns.Obj(d.U64()).(*half))
	}
	for k := d.Count(1 << 24); k > 0; k-- {
		at := d.Dur()
		seq := d.U64()
		n.sim.RestoreAtArg(at, seq, deliverWritable, ctx.Conns.Obj(d.U64()).(*half))
	}
}

// SaveConns writes the state table for every connection half any prior
// section referenced. Encoding a half can register its peer, so the
// walk loops until no new ids appear; the stream marks each record with
// a continuation bit.
func (n *Network) SaveConns(ctx *snapio.Ctx) {
	e := ctx.Enc
	idx := 0
	for {
		objs := ctx.Conns.Assigned()
		if idx >= len(objs) {
			break
		}
		hc, ok := objs[idx].(*half)
		if !ok {
			snapio.Failf("snapshot: conn table holds a %T", objs[idx])
		}
		idx++
		e.Bool(true)
		e.I64(int64(ifaceID(hc.iface)))
		// A reaped peer is a typed nil *half; Ref would happily assign it
		// an id and the walk would then visit it. Encode the nil directly.
		var peerRef uint64
		if hc.peer != nil {
			peerRef = ctx.Conns.Ref(hc.peer)
		}
		e.U64(peerRef)
		e.Int(int(hc.class))
		e.Bool(hc.closed)
		e.Bool(hc.zombie)
		e.Bool(hc.paused)
		e.Bool(hc.procPaused)
		e.Int(len(hc.buf))
		for _, m := range hc.buf {
			ctx.Msgs.Encode(e, m)
		}
		e.Int(int(hc.inTransit))
		e.Bool(hc.wantWrite)
		e.U64(uint64(hc.closeCode))
		e.Int(int(hc.ownerSlot))
	}
	e.Bool(false)
}

// LoadConns fills the blank halves created by earlier references. It
// does not touch handlers or close hooks — owners re-attached those
// during their restore.
func (n *Network) LoadConns(ctx *snapio.Ctx) {
	d := ctx.Dec
	for id := uint64(1); d.Bool(); id++ {
		hc, ok := ctx.Conns.Obj(id).(*half)
		if !ok {
			snapio.Failf("snapshot: conn table id %d is a %T", id, ctx.Conns.Obj(id))
		}
		hc.iface = n.ifaceOrNil(cnet.NodeID(d.I64()))
		if peer := ctx.Conns.Obj(d.U64()); peer != nil {
			hc.peer = peer.(*half)
		} else {
			hc.peer = nil
		}
		hc.class = uint8(d.Int())
		hc.closed = d.Bool()
		hc.zombie = d.Bool()
		hc.paused = d.Bool()
		hc.procPaused = d.Bool()
		nb := d.Count(1 << 20)
		if nb > 0 {
			hc.buf = make([]cnet.Message, 0, nb)
			for ; nb > 0; nb-- {
				hc.buf = append(hc.buf, ctx.Msgs.Decode(d))
			}
		}
		hc.inTransit = int32(d.Int())
		hc.wantWrite = d.Bool()
		hc.closeCode = uint8(d.U64())
		hc.ownerSlot = int32(d.Int())
	}
}
