package server

import (
	"press/internal/cnet"
	"press/internal/trace"
)

// acceptClient handles client-facing (or front-end-forwarded, or
// FME-probe) connections. One request per connection, HTTP/1.0 style.
//
// Shedding happens here, at accept time: when the service slots and the
// backlog are both full, the connection is refused like a kernel
// overflowing its SYN queue — without costing the main coordinating
// thread anything. This keeps heartbeats timely under overload; without
// it, deep overload delays the heartbeat path enough to splinter the
// cluster, which is not a behaviour the paper's testbed exhibited.
func (s *Server) acceptClient(c cnet.Conn) cnet.StreamHandlers {
	if s.active >= maxConcurrent && s.QueuedAccepts() >= acceptBacklog {
		c.Close()
		return cnet.StreamHandlers{}
	}
	return s.clientH
}

func (s *Server) onClientMsg(c cnet.Conn, m cnet.Message) {
	req, ok := m.(*ReqMsg)
	if !ok {
		return
	}
	s.handleRequest(c, req)
}

func (s *Server) onClientClose(c cnet.Conn, err error) {
	// Client gave up (timeout) or finished: release anything the request
	// still holds.
	if id := s.env.ConnWord(c); id != 0 {
		// The connection's one request was admitted; it is in flight still
		// or it has finished, and either way it left the accept queue when
		// it got its slot: there is nothing there to look for.
		if st := s.inflight.get(id); st != nil {
			cnet.ReleaseConn(c) // pin taken when admit stored it
			st.client = nil
			s.finish(st, false)
		}
		return
	}
	// It never got a slot: drop it from the accept queue if it waits there.
	for i := s.acceptHead; i < len(s.acceptQ); i++ {
		if s.acceptQ[i].conn == c {
			s.acceptQ = append(s.acceptQ[:i], s.acceptQ[i+1:]...)
			break
		}
	}
}

func (s *Server) handleRequest(c cnet.Conn, req *ReqMsg) {
	if req.Probe {
		// FME/S-FME liveness probe: answered inline by the main thread,
		// no slot, reporting the cooperation set.
		s.env.Charge(costControl)
		resp := NewRespMsg(&s.respPool)
		resp.ID, resp.OK, resp.Probe, resp.View = req.ID, true, true, s.View()
		req.Release()
		c.TrySend(resp, sizeResp)
		return
	}
	if s.active >= maxConcurrent {
		if s.QueuedAccepts() >= acceptBacklog {
			// Listen backlog full: shed the connection cheaply, like a
			// kernel-level refusal, before any parsing happens.
			s.env.Charge(costControl)
			req.Release()
			c.Close()
			return
		}
		// No service slot: the request waits unserved. Under a stuck-peer
		// fault this queue is where cluster throughput goes to die. The
		// accept/parse cost is charged on admission.
		if s.acceptHead > 0 && len(s.acceptQ) == cap(s.acceptQ) {
			// A standing backlog never drains, so append-only growth
			// would reallocate with every admission: slide the waiters
			// over the consumed prefix, as the process mailbox does, and
			// zero the vacated tail so its pointers die.
			n := copy(s.acceptQ, s.acceptQ[s.acceptHead:])
			clear(s.acceptQ[n:])
			s.acceptQ, s.acceptHead = s.acceptQ[:n], 0
		}
		s.acceptQ = append(s.acceptQ, pendingReq{conn: c, msg: req})
		return
	}
	s.env.Charge(costAccept)
	s.admit(c, req)
}

func (s *Server) admit(c cnet.Conn, req *ReqMsg) {
	s.active++
	s.nextID++
	st := s.getReq()
	st.id, st.doc, st.client = s.nextID, req.Doc, c
	// The request record holds the conn until finish. The pin matters even
	// though the close normally clears st.client: a deferred
	// admission can store a conn whose close already dispatched (it was
	// popped from the accept queue before the close arrived), and then
	// nothing ever clears st.client — without the pin the pair would
	// recycle under the record and respond would send into a reused conn.
	cnet.RetainConn(c)
	req.Release()
	s.inflight.put(st)
	s.env.SetConnWord(c, st.id)
	s.route(st)
}

func (s *Server) getReq() *reqState {
	if n := len(s.reqFree); n > 0 {
		st := s.reqFree[n-1]
		s.reqFree = s.reqFree[:n-1]
		return st
	}
	return &reqState{forwardedTo: cnet.None}
}

// putReq recycles a finished request's state. The generation bump
// invalidates any disk continuation still pointing at st.
func (s *Server) putReq(st *reqState) {
	st.gen++
	st.client = nil
	st.forwardedTo = cnet.None
	s.reqFree = append(s.reqFree, st)
}

// route decides how to serve st: local cache, a caching peer, the
// document's home node, or the local disk (§3's request distribution).
func (s *Server) route(st *reqState) {
	if s.cache.Has(st.doc) {
		s.env.Charge(costLocalHit)
		s.stats.LocalHits++
		s.respond(st, true)
		return
	}
	if !s.cfg.Cooperative {
		s.diskServe(st)
		return
	}
	if target, ok := s.pickService(st.doc); ok {
		s.forward(st, target)
		return
	}
	s.diskServe(st)
}

// diskServe reads st's document from the local disk and responds.
func (s *Server) diskServe(st *reqState) {
	op := s.getDiskOp()
	op.doc, op.st, op.stGen = st.doc, st, st.gen
	s.diskRead(op)
}

// pickService chooses the service node for a document we don't cache:
// the least-loaded peer known to cache it, else the document's home node
// (hash placement), unless queue monitoring says to route away.
func (s *Server) pickService(doc trace.DocID) (cnet.NodeID, bool) {
	view := s.sortedView()
	if len(view) <= 1 {
		return cnet.None, false
	}
	if best := s.leastLoadedHolder(doc, cnet.None); best != cnet.None {
		return best, true
	}
	home := view[int(doc)%len(view)]
	if home == s.cfg.Self {
		return cnet.None, false
	}
	if s.qm != nil && s.qm.ShouldReroute(home) {
		s.stats.Rerouted++
		return cnet.None, false
	}
	return home, true
}

// leastLoadedHolder returns the least-loaded node the directory records
// as caching doc, or cnet.None. It passes over ourselves, the node
// except, nodes outside the view and nodes queue monitoring says to
// route away from.
func (s *Server) leastLoadedHolder(doc trace.DocID, except cnet.NodeID) cnet.NodeID {
	best := cnet.None
	bestLoad := int(^uint(0) >> 1)
	s.dir.eachHolder(doc, func(n cnet.NodeID) {
		if n == s.cfg.Self || n == except || !s.inView(n) {
			return
		}
		if s.qm != nil && s.qm.ShouldReroute(n) {
			s.stats.Rerouted++
			return
		}
		if l := s.peer(n).load; l < bestLoad {
			best, bestLoad = n, l
		}
	})
	return best
}

func (s *Server) forward(st *reqState, target cnet.NodeID) {
	s.env.Charge(costForward)
	st.forwardedTo = target
	s.stats.ForwardsOut++
	m := NewFwdMsg(&s.fwdPool)
	m.ID, m.Doc, m.Load = st.id, st.doc, s.active
	m.Origin = cnet.None // first hop; pool recycling zeroes the field
	s.enqueue(target, outMsg{m: m, size: sizeFwd, isReq: true, reqID: st.id})
}

// completeForwarded handles a service node's reply.
func (s *Server) completeForwarded(from cnet.NodeID, msg *FwdReplyMsg) {
	st := s.inflight.get(msg.ID)
	if st == nil {
		return // request already dead (client timeout)
	}
	if !s.proto.awaits(st, from) {
		return // rerouted elsewhere
	}
	s.env.Charge(costReply)
	s.stats.RemoteServed++
	s.respond(st, msg.OK)
}

// servePeer is the service-node half of a forwarded request: serve from
// the cache, let the directory protocol relay the miss, or read the
// local disks.
func (s *Server) servePeer(from cnet.NodeID, msg *FwdMsg) {
	replyTo := from
	if msg.Origin != cnet.None {
		replyTo = msg.Origin
	}
	if s.cache.Has(msg.Doc) {
		s.env.Charge(costPeerServe)
		s.replyPeer(replyTo, msg.ID, msg.Doc, true)
		return
	}
	if s.proto.relay(from, msg) {
		return
	}
	// Miss at the service node: read and start caching (the announce
	// happens when the read completes).
	s.env.Charge(costPeerServe)
	op := s.getDiskOp()
	op.doc, op.peerServe, op.from, op.id = msg.Doc, true, replyTo, msg.ID
	s.diskRead(op)
}

// replyPeer answers a forwarded request back to the requesting node.
func (s *Server) replyPeer(from cnet.NodeID, id uint64, doc trace.DocID, ok bool) {
	if !s.inView(from) {
		return
	}
	s.stats.PeerServes++
	m := NewFwdReplyMsg(&s.fwdRepPool)
	m.ID, m.Doc, m.OK, m.Load = id, doc, ok, s.active
	s.enqueue(from, outMsg{m: m, size: sizeResp + int(s.cfg.Catalog.Size)})
}

// diskKey maps a document to its placement key on the local disks. The
// low bits of the document ID drive cooperative-cache ownership (home =
// view[doc mod n]), so the disk placement must use different bits or each
// node would exercise only one of its disks.
func diskKey(doc trace.DocID) int { return int(doc) >> 3 }

// diskOp is a pooled disk-read continuation: one record carries a read
// through submission, the queue-full stall/retry loop, and the completion
// bounce. It is the operation's owner in the disk subsystem, which calls
// DiskDone and DiskSpace on it, and of the timer each of those arms to hop
// back to server context (OnTimer).
type diskOp struct {
	s    *Server
	doc  trace.DocID
	ok   bool
	done bool // the disk answered: the hop finishes the read instead of retrying it

	// Local-serve completion. stGen guards against the request dying
	// (client timeout) and st being recycled while the read is in flight.
	st    *reqState
	stGen uint64

	// Peer-serve completion.
	peerServe bool
	from      cnet.NodeID
	id        uint64

	slot int // index in s.diskOps while the op is live
}

func (s *Server) getDiskOp() *diskOp {
	var op *diskOp
	if n := len(s.diskFree); n > 0 {
		op = s.diskFree[n-1]
		s.diskFree = s.diskFree[:n-1]
	} else {
		op = &diskOp{s: s}
	}
	op.slot = len(s.diskOps)
	s.diskOps = append(s.diskOps, op)
	return op
}

func (s *Server) putDiskOp(op *diskOp) {
	last := len(s.diskOps) - 1
	moved := s.diskOps[last]
	s.diskOps[op.slot] = moved
	moved.slot = op.slot
	s.diskOps[last] = nil
	s.diskOps = s.diskOps[:last]
	op.st = nil
	op.peerServe, op.done = false, false
	s.diskFree = append(s.diskFree, op)
}

// diskRead submits a read, blocking the main thread (Stall) when the disk
// queue is full — the behaviour at the heart of Figure 4.
func (s *Server) diskRead(op *diskOp) {
	if s.disk.ReadFor(diskKey(op.doc), op) {
		return
	}
	s.env.Stall()
	s.disk.NotifySpace(op)
}

// DiskDone hears the read's outcome in the disk subsystem's context and
// bounces it through the mailbox.
func (op *diskOp) DiskDone(ok bool) {
	op.ok, op.done = ok, true
	op.s.env.Hop(op)
}

// DiskSpace hears that the queue has room again (only a simulated array's
// ever fills): unblock the main thread, then retry this same operation as
// its own work item.
func (op *diskOp) DiskSpace() {
	op.s.env.Resume()
	op.s.env.Hop(op)
}

// OnTimer implements cnet.TimerOwner: the hop back to server context,
// which finishes the read once the disk has answered and retries its
// submission until then.
func (op *diskOp) OnTimer() {
	if op.done {
		op.s.diskDone(op)
	} else {
		op.s.diskRead(op)
	}
}

// diskDone completes a read in server context.
func (s *Server) diskDone(op *diskOp) {
	s.stats.DiskReads++
	ok, doc := op.ok, op.doc
	if op.peerServe {
		from, id := op.from, op.id
		s.putDiskOp(op)
		s.env.Charge(costDiskDone)
		if ok {
			s.insertCache(doc)
		}
		s.replyPeer(from, id, doc, ok)
		return
	}
	st, gen := op.st, op.stGen
	s.putDiskOp(op)
	s.env.Charge(costDiskDone)
	if ok {
		s.insertCache(doc)
	}
	if st.gen != gen {
		return // request finished (client timeout) while the read was in flight
	}
	s.respond(st, ok)
}

// insertCache caches doc locally and broadcasts the caching decision(s).
func (s *Server) insertCache(doc trace.DocID) {
	evicted, didEvict := s.cache.Insert(doc)
	if s.cfg.Cooperative {
		s.proto.announce(doc, true)
		if didEvict {
			s.proto.announce(evicted, false)
		}
	}
}

// respond sends the answer to the client and releases the slot.
func (s *Server) respond(st *reqState, ok bool) {
	if st.client != nil {
		size := sizeResp
		if ok {
			size += int(s.cfg.Catalog.Size)
		}
		m := NewRespMsg(&s.respPool)
		m.ID, m.OK = st.id, ok
		st.client.TrySend(m, size)
		s.stats.Served++
	}
	s.finish(st, true)
}

// finish tears down request state, recycles it, and pulls the next
// waiter in.
func (s *Server) finish(st *reqState, responded bool) {
	if !s.inflight.del(st.id) {
		return
	}
	if st.client != nil {
		cnet.ReleaseConn(st.client) // pin taken when admit stored it
	}
	s.putReq(st)
	s.active--
	if s.active < maxConcurrent && s.QueuedAccepts() > 0 {
		next := s.popAccept()
		// Admit through the mailbox: the accept backlog drains as a chain
		// of separately charged work items, not one giant handler. The
		// queue entry is popped here, not in the callback, so a client
		// close can still remove a waiter in between.
		op := s.getAdmitOp()
		op.conn, op.msg = next.conn, next.msg
		cnet.RetainConn(op.conn)
		s.env.Hop(op)
	}
}

// popAccept takes the oldest waiter off the accept queue, which must have
// one.
func (s *Server) popAccept() pendingReq {
	next := s.acceptQ[s.acceptHead]
	s.acceptQ[s.acceptHead] = pendingReq{}
	s.acceptHead++
	if s.acceptHead == len(s.acceptQ) {
		s.acceptQ, s.acceptHead = s.acceptQ[:0], 0
	}
	return next
}

// admitOp is a pooled deferred-admission record, the owner of the timer
// that admits it.
type admitOp struct {
	s    *Server
	conn cnet.Conn
	msg  *ReqMsg
	slot int // index in s.admitOps while live
}

func (s *Server) getAdmitOp() *admitOp {
	var op *admitOp
	if n := len(s.admitFree); n > 0 {
		op = s.admitFree[n-1]
		s.admitFree = s.admitFree[:n-1]
	} else {
		op = &admitOp{s: s}
	}
	op.slot = len(s.admitOps)
	s.admitOps = append(s.admitOps, op)
	return op
}

// OnTimer implements cnet.TimerOwner: admit the request in its own work
// item.
func (op *admitOp) OnTimer() {
	s := op.s
	conn, msg := op.conn, op.msg
	s.putAdmitOp(op)
	s.env.Charge(costAccept)
	s.admit(conn, msg)
	cnet.ReleaseConn(conn) // pin taken when the op captured the conn
}

func (s *Server) putAdmitOp(op *admitOp) {
	last := len(s.admitOps) - 1
	moved := s.admitOps[last]
	s.admitOps[op.slot] = moved
	moved.slot = op.slot
	s.admitOps[last] = nil
	s.admitOps = s.admitOps[:last]
	// The pin on op.conn is dropped by OnTimer after admit, not here: it is
	// the only caller, and it still uses the conn after recycling the
	// record.
	op.conn, op.msg = nil, nil
	s.admitFree = append(s.admitFree, op)
}
