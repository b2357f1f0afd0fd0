package server

import (
	"time"

	"press/internal/clock"
	"press/internal/cnet"
)

// peer holds the intra-cluster plumbing towards one other node. PRESS uses
// a pair of unidirectional streams per node pair: each node dials its own
// send connection and receives on the one the peer dialed. The send queue
// in front of the connection is the structure queue monitoring watches.
// The peer is its dials' owner (cnet.DialOwner), and its send stream's
// word holds its id + 1, which is how the server's send handlers find it.
//
// A server keeps one per other node, so at N=256 a world holds 65,280 of
// them: the record is one cache line, and what only some peers need — a
// queue for messages that had to wait, the redials of a dial that failed —
// hangs off it, allocated the first time it is needed.
type peer struct {
	id      cnet.NodeID
	conn    cnet.Conn  // outbound (send) connection; nil until established
	q       *sendQueue // nil until a message first had to wait
	load    int        // piggybacked open-request count
	dialing bool
	rd      *peerRedials // nil until a dial first failed
	s       *Server      // for DialResult and the redials
}

// sendQueue holds the messages waiting for the send stream: it is not up,
// or its window is full.
type sendQueue struct {
	msgs []outMsg
	head int // consumed prefix of msgs (popped without re-slicing)
	reqs int // FwdMsgs among the queued messages
}

// peerRedials are the redial timers armed towards one peer. retry is the
// one armed last, the one teardown stops; list holds all that are armed
// and have not run yet, oldest first. There can be several: teardown
// clears dialing under a dial in flight, the next include dials again, and
// each refused dial arms a redial.
type peerRedials struct {
	retry clock.Timer
	list  []*redial
}

// redial is the owner of one armed redial timer.
type redial struct{ p *peer }

func (p *peer) newRedial() *redial {
	if p.rd == nil {
		p.rd = new(peerRedials)
	}
	r := &redial{p: p}
	p.rd.list = append(p.rd.list, r)
	return r
}

// OnTimer implements cnet.TimerOwner: dial the peer again.
func (r *redial) OnTimer() {
	p := r.p
	for i, o := range p.rd.list {
		if o == r {
			p.rd.list = append(p.rd.list[:i], p.rd.list[i+1:]...)
			break
		}
	}
	p.s.connectPeer(p.id)
}

// len and requests count the waiting messages and the requests among
// them; a peer that never queued has a nil queue, which holds none.
func (q *sendQueue) len() int {
	if q == nil {
		return 0
	}
	return len(q.msgs) - q.head
}

func (q *sendQueue) requests() int {
	if q == nil {
		return 0
	}
	return q.reqs
}

// wait queues om behind the messages already waiting.
func (p *peer) wait(om outMsg) {
	if p.q == nil {
		p.q = new(sendQueue)
	}
	p.q.msgs = append(p.q.msgs, om)
	if om.isReq {
		p.q.reqs++
	}
}

type outMsg struct {
	m     cnet.Message
	size  int
	isReq bool
	reqID uint64 // for requeuing on exclusion; 0 for non-requests
}

// peerAt returns n's peer plumbing, nil when none was ever built —
// the dense-slice counterpart of the old map lookup.
func (s *Server) peerAt(n cnet.NodeID) *peer {
	if n < 0 || int(n) >= len(s.peers) {
		return nil
	}
	return s.peers[n]
}

func (s *Server) setPeer(n cnet.NodeID, p *peer) {
	if int(n) >= len(s.peers) {
		grown := make([]*peer, int(n)+1)
		copy(grown, s.peers)
		s.peers = grown
	}
	s.peers[n] = p
}

func (s *Server) peer(n cnet.NodeID) *peer {
	p := s.peerAt(n)
	if p == nil {
		p = &peer{s: s, id: n}
		s.setPeer(n, p)
	}
	return p
}

// DialHandlers implements cnet.DialOwner: every send stream gets the
// server's one set.
func (p *peer) DialHandlers() cnet.StreamHandlers { return p.s.sendH }

// sendPeer reads the peer DialResult wrote into c's word: None if it did not.
func (s *Server) sendPeer(c cnet.Conn) cnet.NodeID {
	return cnet.NodeID(s.env.ConnWord(c)) - 1
}

func (s *Server) onSendClose(c cnet.Conn, err error) {
	if p := s.peerAt(s.sendPeer(c)); p != nil && p.conn == c {
		p.conn = nil
		cnet.ReleaseConn(c) // pin taken when DialResult stored it
		s.peerConnLost(p.id, err)
	}
}

func (s *Server) onSendWritable(c cnet.Conn) { s.drain(s.sendPeer(c)) }

// DialResult implements cnet.DialOwner: the send connection is up, or a
// redial is armed.
func (p *peer) DialResult(c cnet.Conn, err error) {
	s := p.s
	p.dialing = false
	if err != nil {
		// The peer application is dead or the node unreachable. Keep
		// retrying while it remains in the view; the detectors decide
		// whether it should stay there.
		if s.inView(p.id) {
			r := p.newRedial()
			p.rd.retry = s.env.AfterFor(2*time.Second, r)
		}
		return
	}
	if !s.inView(p.id) {
		c.Close()
		return
	}
	p.conn = c
	s.env.SetConnWord(c, uint64(p.id)+1)
	cnet.RetainConn(c) // the record holds the conn across events
	hello := HelloMsg{From: s.cfg.Self, CacheDocs: s.cache.Docs()}
	c.TrySend(hello, sizeHello+4*len(hello.CacheDocs))
	s.drain(p.id)
}

func (s *Server) peerLoad(n cnet.NodeID, load int) {
	if p := s.peerAt(n); p != nil {
		p.load = load
	} else if s.inView(n) {
		s.peer(n).load = load
	}
}

// connectPeer establishes (or re-establishes) the send connection to n.
func (s *Server) connectPeer(n cnet.NodeID) {
	p := s.peer(n)
	if p.conn != nil || p.dialing {
		return
	}
	p.dialing = true
	s.env.DialFor(n, cnet.ClassIntra, PortPress, p)
}

// enqueue sends a message to n, behind any that wait for the send stream.
func (s *Server) enqueue(n cnet.NodeID, om outMsg) {
	p := s.peer(n)
	if p.conn == nil || p.q.len() > 0 {
		p.wait(om)
		s.observeQueue(p)
		if p.conn == nil {
			s.connectPeer(n)
			return
		}
		s.drain(n)
		return
	}
	// Nothing waits on an open stream: send at once. Queue monitoring sees
	// what a queue of this one message would show it.
	reqs := 0
	if om.isReq {
		reqs = 1
	}
	s.observe(n, 1, reqs)
	switch {
	case p.conn == nil:
		// That observation excluded n; the message went with its queue.
		s.connectPeer(n)
	case p.conn.TrySend(om.m, om.size):
		s.observe(n, 0, 0)
	default: // flow control: the peer is not reading
		p.wait(om)
		s.observeQueue(p)
	}
}

// drain pushes queued messages until the connection's window fills.
func (s *Server) drain(n cnet.NodeID) {
	p := s.peerAt(n)
	if p == nil || p.conn == nil {
		return
	}
	if q := p.q; q != nil {
		for q.head < len(q.msgs) {
			om := q.msgs[q.head]
			if !p.conn.TrySend(om.m, om.size) {
				break // flow control: the peer is not reading
			}
			q.msgs[q.head] = outMsg{}
			q.head++
			if om.isReq {
				q.reqs--
			}
		}
		if q.head == len(q.msgs) {
			// Fully drained: reset so the backing array is reused from the top.
			q.msgs = q.msgs[:0]
			q.head = 0
		}
	}
	s.observeQueue(p)
}

func (s *Server) observeQueue(p *peer) { s.observe(p.id, p.q.len(), p.q.requests()) }

// observe tells queue monitoring that total messages, reqs of them
// requests, wait for n.
func (s *Server) observe(n cnet.NodeID, total, reqs int) {
	if s.qm != nil {
		s.qm.Observe(n, total, reqs)
	}
}

// teardown closes the peer's plumbing and empties its send queue. Queued
// requests are rerouted by the caller via the inflight table.
func (p *peer) teardown() {
	p.q = nil
	if rd := p.rd; rd != nil && rd.retry != nil && rd.retry.Stop() {
		rd.list = rd.list[:len(rd.list)-1] // pending, so not run yet: the newest of them
	}
	if p.conn != nil {
		p.conn.Close()
		cnet.ReleaseConn(p.conn) // pin taken when DialResult stored it
		p.conn = nil
	}
	p.dialing = false
}

// peerConnLost reacts to the loss of our send connection to n. A reset
// means the peer process crashed (or its machine rebooted): PRESS treats
// that as the peer leaving the cooperation set; it rejoins via the join
// protocol or the membership service.
func (s *Server) peerConnLost(n cnet.NodeID, err error) {
	if !s.inView(n) {
		return
	}
	s.emitDetect(int(n), "conn: "+err.Error())
	s.exclude(n, "connection lost")
}

// An inbound peer stream's word is its whole record: the stream's slot in
// s.inbound in the high 32 bits, and its dialer's id + 1 in the low 32 —
// 0, which reads as None, until the Hello names the dialer.
func inWord(slot int, from cnet.NodeID) uint64 { return uint64(slot)<<32 | uint64(uint32(from+1)) }

func inSlot(w uint64) int { return int(w >> 32) }

func inFrom(w uint64) cnet.NodeID { return cnet.NodeID(uint32(w)) - 1 }

// acceptPeer handles inbound intra-cluster connections (the peer's send
// connection). The first message must be a Hello identifying the dialer.
func (s *Server) acceptPeer(c cnet.Conn) cnet.StreamHandlers {
	// Listed before its Hello, as from nobody yet: a hung server accepts
	// (the handshake is the kernel's) and reads the Hello when it wakes,
	// and a snapshot in between has to know this is a peer stream.
	s.addInbound(c, cnet.None)
	return s.inH
}

func (s *Server) addInbound(c cnet.Conn, from cnet.NodeID) {
	s.env.SetConnWord(c, inWord(len(s.inbound), from))
	s.inbound = append(s.inbound, c)
}

func (s *Server) onPeerClose(c cnet.Conn, err error) {
	w := s.env.ConnWord(c)
	slot, last := inSlot(w), len(s.inbound)-1
	moved := s.inbound[last]
	s.inbound[slot] = moved
	s.env.SetConnWord(moved, inWord(slot, inFrom(s.env.ConnWord(moved))))
	s.inbound[last] = nil
	s.inbound = s.inbound[:last]
	if from := inFrom(w); from != cnet.None {
		s.peerConnLost(from, err)
	}
}

func (s *Server) onPeerMsg(c cnet.Conn, m cnet.Message) {
	w := s.env.ConnWord(c)
	from := inFrom(w)
	switch msg := m.(type) {
	case HelloMsg:
		s.env.Charge(s.cfg.Cost.Control)
		s.env.SetConnWord(c, inWord(inSlot(w), msg.From))
		for _, d := range msg.CacheDocs {
			if s.proto.records(d) {
				s.dir.Set(msg.From, d, true)
			}
		}
		// A Hello from a node outside the view is a (re)joining member:
		// NodeIn. (Base PRESS: the rejoining node re-establishes the
		// intra-cluster connections.)
		s.include(msg.From, "hello")
	case *FwdMsg:
		if from != cnet.None {
			s.peerLoad(from, msg.Load)
			s.servePeer(from, msg)
		}
		msg.Release()
	case *FwdReplyMsg:
		if from != cnet.None {
			s.peerLoad(from, msg.Load)
			s.completeForwarded(from, msg)
		}
		msg.Release()
	}
}
