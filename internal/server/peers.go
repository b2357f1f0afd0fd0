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
type peer struct {
	// Hot fields first: every forward touches conn, the send queue and
	// load, so they share the record's leading cache line; dial/retry
	// state is only walked during fault episodes and sits behind them.
	id       cnet.NodeID
	conn     cnet.Conn // outbound (send) connection; nil until established
	sendQ    []outMsg
	sendHead int // consumed prefix of sendQ (popped without re-slicing)
	reqInQ   int // FwdMsgs among the queued messages
	load     int // piggybacked open-request count
	dialing  bool
	// retry is the redial timer armed last, the one teardown stops;
	// retries are all that are armed and have not run yet, oldest first.
	// There can be several: teardown clears dialing under a dial in flight,
	// the next include dials again, and each refused dial arms a redial.
	retry   clock.Timer
	retries []*redial

	s *Server // for DialResult and the redials
}

// redial is the owner of one armed redial timer.
type redial struct{ p *peer }

func (p *peer) newRedial() *redial {
	r := &redial{p: p}
	p.retries = append(p.retries, r)
	return r
}

// OnTimer implements cnet.TimerOwner: dial the peer again.
func (r *redial) OnTimer() {
	p := r.p
	for i, o := range p.retries {
		if o == r {
			p.retries = append(p.retries[:i], p.retries[i+1:]...)
			break
		}
	}
	p.s.connectPeer(p.id)
}

func (p *peer) qlen() int { return len(p.sendQ) - p.sendHead }

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
			p.retry = s.env.AfterFor(2*time.Second, p.newRedial())
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

// enqueue appends a message to n's send queue and pushes the queue.
func (s *Server) enqueue(n cnet.NodeID, om outMsg) {
	p := s.peer(n)
	p.sendQ = append(p.sendQ, om)
	if om.isReq {
		p.reqInQ++
	}
	s.observeQueue(p)
	if p.conn == nil {
		s.connectPeer(n)
		return
	}
	s.drain(n)
}

// drain pushes queued messages until the connection's window fills.
func (s *Server) drain(n cnet.NodeID) {
	p := s.peerAt(n)
	if p == nil || p.conn == nil {
		return
	}
	for p.sendHead < len(p.sendQ) {
		om := p.sendQ[p.sendHead]
		if !p.conn.TrySend(om.m, om.size) {
			break // flow control: the peer is not reading
		}
		p.sendQ[p.sendHead] = outMsg{}
		p.sendHead++
		if om.isReq {
			p.reqInQ--
		}
	}
	if p.sendHead == len(p.sendQ) {
		// Fully drained: reset so the backing array is reused from the top.
		p.sendQ = p.sendQ[:0]
		p.sendHead = 0
	}
	s.observeQueue(p)
}

func (s *Server) observeQueue(p *peer) {
	if s.qm != nil {
		s.qm.Observe(p.id, p.qlen(), p.reqInQ)
	}
}

// teardown closes the peer's plumbing and empties its send queue. Queued
// requests are rerouted by the caller via the inflight table.
func (p *peer) teardown() {
	p.sendQ = nil
	p.sendHead = 0
	p.reqInQ = 0
	if p.retry != nil && p.retry.Stop() {
		p.retries = p.retries[:len(p.retries)-1] // pending, so not run yet: the newest of them
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
