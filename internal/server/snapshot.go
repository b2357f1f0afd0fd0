package server

import (
	"sort"

	"press/internal/clock"
	"press/internal/cnet"
	"press/internal/snapio"
	"press/internal/trace"
)

// Snapshot support. The server serializes its protocol state — cache,
// directory, view, peers, in-flight requests, pooled disk/admit
// continuations, ring detector — but no callbacks: those are rebuilt by
// Restore, which constructs an unstarted server on the restored process
// environment, re-registers its listeners, runs the same walk that saved
// the state — defining the records its pending timers answer to as it
// meets them — and re-attaches handlers to every restored connection.
//
// The queue monitor, when there is one, travels at the end of the server's
// section; the membership client library is the embedding process's, which
// restores it first and hands it to Restore.

// RegisterMessages describes every PRESS wire message to the codec, one
// walk each, so mailbox entries, connection buffers, send queues and
// livenet's sockets can carry them. Pooled messages decode as
// pool-less records (their Release leaks to the GC, the pre-pooling
// behaviour).
func RegisterMessages(c *snapio.MsgCodec) {
	c.Register("press.Req", (*ReqMsg)(nil), func(x *snapio.Ctx, m any) any {
		r := m.(*ReqMsg)
		if r == nil {
			r = new(ReqMsg)
		}
		x.U64(&r.ID)
		snapio.Int(x, &r.Doc)
		x.Bool(&r.Probe)
		return r
	})
	c.Register("press.Resp", (*RespMsg)(nil), func(x *snapio.Ctx, m any) any {
		r := m.(*RespMsg)
		if r == nil {
			r = new(RespMsg)
		}
		x.U64(&r.ID)
		x.Bool(&r.OK)
		x.Bool(&r.Probe)
		snapio.Ints(x, &r.View, 1<<16)
		return r
	})
	c.Register("press.Hello", HelloMsg{}, func(x *snapio.Ctx, m any) any {
		h := m.(HelloMsg)
		snapio.Int(x, &h.From)
		snapio.Ints(x, &h.CacheDocs, 1<<24)
		return h
	})
	c.Register("press.Fwd", (*FwdMsg)(nil), func(x *snapio.Ctx, m any) any {
		r := m.(*FwdMsg)
		if r == nil {
			r = new(FwdMsg)
		}
		x.U64(&r.ID)
		snapio.Int(x, &r.Doc)
		snapio.Int(x, &r.Load)
		snapio.Int(x, &r.Origin)
		return r
	})
	c.Register("press.FwdReply", (*FwdReplyMsg)(nil), func(x *snapio.Ctx, m any) any {
		r := m.(*FwdReplyMsg)
		if r == nil {
			r = new(FwdReplyMsg)
		}
		x.U64(&r.ID)
		snapio.Int(x, &r.Doc)
		x.Bool(&r.OK)
		snapio.Int(x, &r.Load)
		return r
	})
	c.Register("press.Announce", (*AnnounceMsg)(nil), func(x *snapio.Ctx, m any) any {
		r := m.(*AnnounceMsg)
		if r == nil {
			r = new(AnnounceMsg)
		}
		snapio.Int(x, &r.From)
		snapio.Int(x, &r.Doc)
		x.Bool(&r.Cached)
		snapio.Int(x, &r.Load)
		return r
	})
	c.Register("press.HB", (*HBMsg)(nil), func(x *snapio.Ctx, m any) any {
		r := m.(*HBMsg)
		if r == nil {
			r = new(HBMsg)
		}
		snapio.Int(x, &r.From)
		snapio.Int(x, &r.Load)
		return r
	})
	c.Register("press.Exclude", ExcludeMsg{}, func(x *snapio.Ctx, m any) any {
		r := m.(ExcludeMsg)
		snapio.Int(x, &r.From)
		snapio.Int(x, &r.Dead)
		return r
	})
	c.Register("press.JoinReq", JoinReqMsg{}, func(x *snapio.Ctx, m any) any {
		r := m.(JoinReqMsg)
		snapio.Int(x, &r.From)
		return r
	})
	c.Register("press.JoinResp", JoinRespMsg{}, func(x *snapio.Ctx, m any) any {
		r := m.(JoinRespMsg)
		snapio.Int(x, &r.From)
		snapio.Ints(x, &r.View, 1<<16)
		return r
	})
}

// snap moves the counters, which a live server and a husk both carry.
func (st *Stats) snap(x *snapio.Ctx) {
	for _, v := range []*uint64{&st.Served, &st.LocalHits, &st.RemoteServed, &st.DiskReads,
		&st.ForwardsOut, &st.PeerServes, &st.Rerouted, &st.Excludes, &st.Includes} {
		x.U64(v)
	}
}

// node moves a cluster node's id. A loaded one has to be a node of this
// cluster (or None, where the field allows): ids index the dense view and
// peer tables, which grow to whatever they are handed.
func (s *Server) node(x *snapio.Ctx, n *cnet.NodeID, orNone bool) {
	snapio.Int(x, n)
	if _, known := s.dir.bit(*n); !x.Saving() && !known && !(orNone && *n == cnet.None) {
		snapio.Failf("server %d: node id %d is not in this cluster", s.cfg.Self, *n)
	}
}

// doc moves a document id; a loaded one has to be in the catalog, whose
// size the directory's table is built for.
func (s *Server) doc(x *snapio.Ctx, d *trace.DocID) {
	snapio.Int(x, d)
	if !x.Saving() && (*d < 0 || int(*d) >= s.cfg.Catalog.Docs) {
		snapio.Failf("server %d: document id %d is not in the catalog", s.cfg.Self, *d)
	}
}

// snapView moves the cooperation set in ascending node order.
func (s *Server) snapView(x *snapio.Ctx) {
	var view []cnet.NodeID
	if x.Saving() {
		view = s.sortedView()
	}
	snapio.Slice(x, &view, 1<<16, func(n *cnet.NodeID) { s.node(x, n, false) })
	if !x.Saving() {
		for _, n := range view {
			s.viewAdd(n)
		}
	}
}

// peerIDs lists the nodes this server has plumbing towards, ascending.
func (s *Server) peerIDs() []cnet.NodeID {
	var ids []cnet.NodeID
	for n, p := range s.peers {
		if p != nil {
			ids = append(ids, cnet.NodeID(n))
		}
	}
	return ids
}

// OwnerGone tells the disk subsystem's walk that this continuation's
// server has died (snapio.Ctx.Owner): the read is still in the array, and
// its completion will find nobody.
func (op *diskOp) OwnerGone() bool {
	env, ok := op.s.env.(interface{ Live() bool })
	return ok && !env.Live()
}

// SnapState moves the server's protocol state; loading, into the
// unstarted server Restore built. Pooled messages in queues go through
// the message codec; the records that own timers, dials and disk reads
// define themselves in ctx.Owners for the sections that name them, the
// machine's and the disks', which run later; retained timer handles and
// connections travel as table references.
func (s *Server) SnapState(x *snapio.Ctx) {
	x.Define(s) // the join timeout's owner
	x.Bool(&s.joined)
	x.U64(&s.nextID)
	snapio.Int(x, &s.active)
	s.stats.snap(x)
	s.snapView(x)

	// Docs are listed MRU-first; refilling oldest-first reproduces the order.
	var docs []trace.DocID
	if x.Saving() {
		docs = s.cache.Docs()
	}
	snapio.Slice(x, &docs, 1<<24, func(d *trace.DocID) { s.doc(x, d) })
	if !x.Saving() {
		s.cache.refill(docs)
	}

	// The directory's word count is derived from cfg.Nodes on both ends,
	// so the layouts need no discriminator: one mask word per entry in
	// the faithful ≤64-node shape, s.dir.words in the wide shape.
	if s.dir.words > 1 {
		snapio.Map(x, s.dir.wide, 1<<24, func(doc *trace.DocID, mask *[]uint64) {
			s.doc(x, doc)
			if !x.Saving() {
				*mask = make([]uint64, s.dir.words)
			}
			for i := range *mask {
				x.U64(&(*mask)[i])
			}
		})
	} else {
		// The documents somebody holds, ascending: what the sorted walk of
		// the map this table replaced wrote.
		doc := trace.DocID(-1)
		for range x.Len(s.dir.entries, 1<<24) {
			var mask uint64
			if x.Saving() {
				for doc++; s.dir.bits[doc] == 0; doc++ {
				}
				mask = s.dir.bits[doc]
			}
			s.doc(x, &doc)
			x.U64(&mask)
			if !x.Saving() {
				s.dir.setMask(doc, mask)
			}
		}
	}

	ids := s.peerIDs()
	snapio.Slice(x, &ids, 1<<16, func(n *cnet.NodeID) {
		s.node(x, n, false)
		p := s.peer(*n)
		// Defined whether or not p.dialing says so: teardown clears the flag
		// under a dial in flight, whose result still comes back here.
		x.Define(p)
		snapio.OptConn(x, &p.conn)
		x.Bool(&p.dialing)
		// The redials still to run, oldest first, each its timer's owner,
		// then the handle of the one armed last, which teardown stops.
		// A peer with neither writes what one with both empty writes.
		var redials []*redial
		var retry clock.Timer
		if p.rd != nil {
			redials, retry = p.rd.list, p.rd.retry
		}
		snapio.Slice(x, &redials, 1<<16, func(r **redial) {
			if !x.Saving() {
				*r = &redial{p: p}
			}
			x.Define(*r)
		})
		cnet.SnapTimer(x, &retry, "server: peer redial")
		snapio.Int(x, &p.load)
		var waiting []outMsg
		if p.q != nil {
			waiting = p.q.msgs[p.q.head:]
		}
		reqs := 0
		snapio.Slice(x, &waiting, 1<<20, func(om *outMsg) {
			snapio.Msg(x, &om.m)
			snapio.Int(x, &om.size)
			x.Bool(&om.isReq)
			x.U64(&om.reqID)
			if om.isReq {
				reqs++
			}
		})
		if !x.Saving() {
			if redials != nil || retry != nil {
				p.rd = &peerRedials{retry: retry, list: redials}
			}
			if waiting != nil {
				p.q = &sendQueue{msgs: waiting, reqs: reqs}
			}
			cnet.RetainConn(p.conn) // no-op on snapshot-built conns; keeps the pin balanced
		}
	})

	// Inbound peer streams, ordered by (sender, connection id): every
	// attached connection got its id in the network's core section, so the
	// list's own order (closes swap-remove from it) never reaches the
	// stream.
	type inbound struct {
		c    cnet.Conn
		ref  uint64
		node cnet.NodeID
	}
	ins := make([]inbound, 0, len(s.inbound))
	for _, c := range s.inbound {
		ins = append(ins, inbound{c, x.Conns.Ref(c), inFrom(s.env.ConnWord(c))})
	}
	sort.Slice(ins, func(i, j int) bool {
		if ins[i].node != ins[j].node {
			return ins[i].node < ins[j].node
		}
		return ins[i].ref < ins[j].ref
	})
	snapio.Slice(x, &ins, 1<<16, func(in *inbound) {
		snapio.Conn(x, &in.c)
		snapio.Int(x, &in.node)
		if !x.Saving() {
			if in.c == nil {
				snapio.Failf("server: inbound conn ref 0 is not a conn")
			}
			s.addInbound(in.c, in.node)
		}
	})

	// In-flight requests, ascending by id.
	reqs := s.inflight.ascending()
	snapio.Slice(x, &reqs, 1<<20, func(rsp **reqState) {
		if !x.Saving() {
			*rsp = new(reqState)
		}
		rs := *rsp
		x.U64(&rs.id)
		s.doc(x, &rs.doc)
		snapio.OptConn(x, &rs.client)
		snapio.Int(x, &rs.forwardedTo)
		x.U64(&rs.gen)
		if x.Saving() {
			return
		}
		if rs.id == 0 || s.inflight.get(rs.id) != nil {
			snapio.Failf("server %d: in-flight request id %d is zero or listed twice", s.cfg.Self, rs.id)
		}
		s.inflight.put(rs)
		if rs.client != nil {
			s.env.SetConnWord(rs.client, rs.id)
			cnet.RetainConn(rs.client) // no-op on snapshot-built conns; keeps the pin balanced with admit
		}
	})

	accepts := s.acceptQ[s.acceptHead:]
	snapio.Slice(x, &accepts, 1<<20, func(pr *pendingReq) {
		snapio.OptConn(x, &pr.conn)
		snapio.Msg(x, &pr.msg)
	})
	if !x.Saving() {
		s.acceptQ = accepts
	}

	for i := range x.Len(len(s.diskOps), 1<<20) {
		var op *diskOp
		if x.Saving() {
			op = s.diskOps[i]
		} else {
			op = s.getDiskOp()
		}
		x.Define(op)
		s.doc(x, &op.doc)
		x.Bool(&op.ok)
		x.Bool(&op.done)
		x.Bool(&op.peerServe)
		if op.peerServe {
			snapio.Int(x, &op.from)
			x.U64(&op.id)
		} else {
			live := op.st != nil && op.st.gen == op.stGen
			x.Bool(&live)
			var liveID uint64
			if live {
				if x.Saving() {
					liveID = op.st.id
				}
				x.U64(&liveID)
			}
			x.U64(&op.stGen)
			switch {
			case x.Saving():
			case !live:
				// The request died while the read was in flight: any state
				// with a newer generation reproduces the stale-guard path.
				op.st = &reqState{forwardedTo: cnet.None, gen: op.stGen + 1}
			default:
				if op.st = s.inflight.get(liveID); op.st == nil {
					snapio.Failf("server %d: disk op for unknown request %d", s.cfg.Self, liveID)
				}
			}
		}
	}

	for i := range x.Len(len(s.admitOps), 1<<20) {
		var op *admitOp
		if x.Saving() {
			op = s.admitOps[i]
		} else {
			op = s.getAdmitOp()
		}
		x.Define(op)
		snapio.OptConn(x, &op.conn)
		if !x.Saving() {
			cnet.RetainConn(op.conn) // no-op on snapshot-built conns; keeps the pin balanced with putAdmitOp
		}
		snapio.Msg(x, &op.msg)
	}

	r := &s.ring
	if !x.Saving() {
		r.s = s
	}
	x.Bool(&r.enabled)
	snapio.Int(x, &r.pred)
	snapio.Int(x, &r.succ)
	snapio.Int(x, &r.lastHB)
	if r.enabled {
		cnet.SnapTicker(x, s.env, &r.hb, s.cfg.HeartbeatPeriod, r.tick, "server: ring heartbeat")
	}

	cnet.SnapTimer(x, &s.joinTimer, "server: join timeout")

	if s.qm != nil {
		s.qm.SnapState(x)
	}
}

// SnapHusk moves the post-mortem observables of a dead incarnation.
// After an application crash the harness holder still points at the old
// *Server, and the driver's operator-reset and result-assembly paths read
// View() and SendQueueLen() from it; nothing else of the corpse is
// reachable. The husk carries exactly those observables plus the counters;
// RestoreHusk loads one.
func (s *Server) SnapHusk(x *snapio.Ctx) {
	s.stats.snap(x)
	s.snapView(x)
	ids := s.peerIDs()
	snapio.Slice(x, &ids, 1<<16, func(n *cnet.NodeID) {
		s.node(x, n, false)
		qlen := 0
		if x.Saving() {
			qlen = s.peers[*n].q.len()
		}
		if snapio.Int(x, &qlen); qlen < 0 || qlen > 1<<20 {
			snapio.Failf("server: husk send queue length %d out of range", qlen)
		}
		if !x.Saving() {
			s.setPeer(*n, &peer{id: *n, q: &sendQueue{msgs: make([]outMsg, qlen)}})
		}
	})
}

// RestoreHusk rebuilds a dead incarnation's husk: a Server with no
// environment, no listeners and no timers, which only answers the
// accessors a dead incarnation can still be asked.
func RestoreHusk(cfg Config, x *snapio.Ctx) *Server {
	s := &Server{cfg: cfg, dir: newDirectory(cfg.Nodes, 0)} // the husk's directory only says which ids are nodes
	s.sizeNodeTables()
	s.SnapHusk(x)
	return s
}

// Restore rebuilds a server inside a snapshot restore: the constructed
// server re-registers its listeners on env (registration only — no
// events), loads its protocol state through SnapState, and re-attaches
// stream handlers to every restored connection.
func Restore(cfg Config, env cnet.RestoreEnv, disk DiskArray, memb MembershipView, x *snapio.Ctx) *Server {
	s := newServer(cfg, env, disk, memb)
	s.listen()
	s.SnapState(x)
	if s.memb != nil {
		s.memb.Subscribe(s.reconcileMembership)
	}

	// Everything the process carried across the snapshot is a client
	// connection, except the established outbound peer streams, which get
	// the send handlers and their peer's word back, and the inbound ones,
	// whose words the walk wrote back.
	for _, c := range env.RestoreConnList() {
		env.RestoreConn(c, s.clientH)
	}
	for _, p := range s.peers {
		if p != nil && p.conn != nil {
			env.RestoreConn(p.conn, s.sendH)
			env.SetConnWord(p.conn, uint64(p.id)+1)
		}
	}
	for _, c := range s.inbound {
		env.RestoreConn(c, s.inH)
	}
	return s
}
