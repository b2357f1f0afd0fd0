package simnet

import (
	"press/internal/cnet"
	"press/internal/snapio"
)

// Snapshot support. The network serializes in three sections, each one
// walk that both directions run:
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
// An end's attachment to its owner (half.h, half.router, half.word), dial
// callbacks, and dgram and listen registrations are never serialized: the
// component that owns them re-attaches during its own restore
// (StreamConn.RestoreHandlers, SetWord), before the conn table and
// pending sections resolve.

// BlankConn is the blank factory for the snapshot connection table.
func BlankConn() any { return new(half) }

// SnapCore moves topology-independent network state; loading, into a
// freshly built topology (same interfaces, no connections, no groups).
// Must run before component sections so every attached conn half is
// registered in iface order.
func (n *Network) SnapCore(x *snapio.Ctx) {
	x.Bool(&n.switchUp)
	x.Rand(n.lossRng)

	if !x.Saving() {
		n.aliases = make(map[cnet.NodeID]cnet.NodeID)
		n.groups = make(map[string][]*Iface)
	}
	snapio.Map(x, n.aliases, 1<<16, func(vip, to *cnet.NodeID) {
		snapio.Int(x, vip)
		snapio.Int(x, to)
	})
	snapio.Map(x, n.groups, 1<<16, func(g *string, members *[]*Iface) {
		x.Str(g)
		snapio.Slice(x, members, 1<<16, func(m **Iface) { n.iface(x, m, false) })
	})

	seen := 0
	snapio.Map(x, n.ifaces, 1<<16, func(id *cnet.NodeID, ip **Iface) {
		snapio.Int(x, id)
		i := n.mustIface(*id)
		*ip = i
		seen++
		snapio.Int(x, &i.state)
		x.Bool(&i.linkUp)
		x.F64(&i.lossDrop)
		snapio.Int(x, &i.lossLat)
		snapio.Int(x, &i.sendFreeAt)
		if !x.Saving() && len(i.conns) != 0 {
			snapio.Failf("simnet: iface %d not virgin at restore", i.id)
		}
		snapio.Slice(x, &i.conns, 1<<20, func(hc **half) {
			if snapio.Conn(x, hc); *hc == nil {
				snapio.Failf("simnet: iface %d lists conn ref 0", i.id)
			}
		})
		if !x.Saving() {
			for k, hc := range i.conns {
				hc.connIdx = int32(k)
			}
		}
	})
	if seen != len(n.ifaces) {
		snapio.Failf("simnet: snapshot has %d ifaces, world has %d", seen, len(n.ifaces))
	}
}

func (n *Network) mustIface(id cnet.NodeID) *Iface {
	i := n.ifaces[id]
	if i == nil {
		snapio.Failf("simnet: snapshot references unknown iface %d", id)
	}
	return i
}

// iface moves an interface reference as its node id. An optional one may
// be nil (a dial op whose destination did not resolve, a reaped half) and
// travels as None.
func (n *Network) iface(x *snapio.Ctx, i **Iface, optional bool) {
	id := cnet.None
	if *i != nil {
		id = (*i).id
	}
	snapio.Int(x, &id)
	if !x.Saving() {
		*i = nil
		if !optional || id != cnet.None {
			*i = n.mustIface(id)
		}
	}
}

// SnapPending moves every in-flight network delivery: saving claims them
// from the pending table, loading re-arms each at its pinned (time,
// sequence) slot. Must run after the owner sections so dial owners
// resolve, and before SnapConns so packet-referenced halves make it into
// the table.
func (n *Network) SnapPending(x *snapio.Ctx) {
	snapio.Pending(x, deliverDgram, 1<<24, nil, func(p *dgramPkt) *dgramPkt {
		if p == nil {
			p = new(dgramPkt)
		}
		n.iface(x, &p.src, false)
		n.iface(x, &p.dst, false)
		snapio.Int(x, &p.class)
		x.Str(&p.port)
		snapio.Msg(x, &p.m)
		return p
	})

	snapio.Pending(x, deliverBatch, 1<<24, nil, func(p *batchPkt) *batchPkt {
		if p == nil {
			p = new(batchPkt)
		}
		n.iface(x, &p.src, false)
		x.Str(&p.port)
		snapio.Msg(x, &p.m)
		snapio.Slice(x, &p.dsts, 1<<20, func(dst **Iface) { n.iface(x, dst, false) })
		return p
	})

	snapio.Pending(x, deliverStream, 1<<24, nil, func(p *streamPkt) *streamPkt {
		if p == nil {
			p = new(streamPkt)
		}
		snapio.Conn(x, &p.from)
		snapio.Conn(x, &p.to)
		snapio.Msg(x, &p.m)
		return p
	})

	for _, stage := range []func(any){dialSyn, dialDone, dialFail} {
		snapio.Pending(x, stage, 1<<24, nil, func(op *dialOp) *dialOp {
			if op == nil {
				op = new(dialOp)
			}
			n.iface(x, &op.i, false)
			n.iface(x, &op.dst, true)
			snapio.Int(x, &op.class)
			x.Str(&op.port)
			cnet.SnapErr(x, &op.err)
			snapio.Conn(x, &op.local) // nil until the syn stage runs
			snapio.Owner(x, &op.owner, nil, "simnet: in-flight dial")
			return op
		})
	}

	for _, notify := range []func(any){deliverCloseArg, deliverWritable} {
		snapio.Pending(x, notify, 1<<24, nil, func(hc *half) *half {
			if snapio.Conn(x, &hc); hc == nil {
				snapio.Failf("simnet: notification pending for conn ref 0")
			}
			return hc
		})
	}
}

// SnapConns moves the state table of every connection half any prior
// section referenced: saving, one record per assigned id, each marked
// with a continuation bit because encoding a half can register its peer,
// so the walk loops until no new ids appear; loading fills the blank
// halves earlier references created. Routers, handlers and words are not
// here — owners re-attach those during their restore.
func (n *Network) SnapConns(x *snapio.Ctx) {
	for id := uint64(1); ; id++ {
		var obj any
		more := true
		if x.Saving() {
			if more = int(id) <= len(x.Conns.Assigned()); more {
				obj = x.Conns.Assigned()[id-1]
			}
		}
		if x.Bool(&more); !more {
			return
		}
		if !x.Saving() {
			obj = x.Conns.Obj(id)
		}
		hc, ok := obj.(*half)
		if !ok {
			snapio.Failf("snapshot: conn table id %d is a %T", id, obj)
		}
		n.iface(x, &hc.iface, true)
		snapio.Conn(x, &hc.peer) // nil once the peer is reaped
		snapio.Int(x, &hc.class)
		x.Bool(&hc.closed)
		x.Bool(&hc.zombie)
		x.Bool(&hc.paused)
		x.Bool(&hc.procPaused)
		snapio.Slice(x, &hc.buf, 1<<20, func(m *cnet.Message) { snapio.Msg(x, m) })
		snapio.Int(x, &hc.inTransit)
		x.Bool(&hc.wantWrite)
		snapio.Uint(x, &hc.closeCode)
		snapio.Int(x, &hc.ownerSlot)
	}
}
