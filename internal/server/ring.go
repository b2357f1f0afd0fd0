package server

import (
	"time"

	"press/internal/clock"
	"press/internal/cnet"
)

// heartbeatMiss is how many consecutive heartbeats a predecessor may miss
// before it is declared dead; ringMissDetail is the detection's reason.
const (
	heartbeatMiss  = 3
	ringMissDetail = "ring: 3 heartbeats missed"
)

// ringDetector is PRESS's built-in fault detector (§3): cluster nodes
// form a directed ring ordered by node ID; each node heartbeats only the
// node it points to (its successor) and watches for heartbeats from its
// predecessor. Three consecutive missing heartbeats declare the
// predecessor dead; the detecting node excludes it and broadcasts the
// exclusion so the whole ring reconfigures.
//
// Heartbeats are sent by the main coordinating thread, so a server whose
// main thread is blocked (full disk queue) or hung stops heartbeating —
// that, not any network fault, is how disk faults surface in Figure 4.
type ringDetector struct {
	s       *Server
	enabled bool
	pred    cnet.NodeID
	succ    cnet.NodeID
	lastHB  time.Duration
	hb      clock.Ticker
}

func (r *ringDetector) init(s *Server) {
	r.s = s
	r.pred, r.succ = cnet.None, cnet.None
	if !s.cfg.RingDetector {
		return
	}
	r.enabled = true
	r.recompute()
	r.hb = r.s.env.Clock().Every(r.s.cfg.HeartbeatPeriod, r.tick)
}

func (r *ringDetector) tick() {
	if !r.enabled {
		r.hb.Stop()
		return
	}
	s := r.s
	s.env.Charge(costControl)
	if r.succ != cnet.None {
		hb := NewHBMsg(&s.hbPool)
		hb.From, hb.Load = s.cfg.Self, s.active
		s.env.Send(r.succ, cnet.ClassIntra, PortHB, hb, sizeHB)
	}
	if r.pred != cnet.None {
		deadline := heartbeatMiss * s.cfg.HeartbeatPeriod
		if s.env.Clock().Now()-r.lastHB > deadline {
			dead := r.pred
			s.emitDetect(int(dead), ringMissDetail)
			// Tell the rest of the ring before reconfiguring locally.
			for _, n := range s.sortedView() {
				if n != s.cfg.Self && n != dead {
					s.env.Send(n, cnet.ClassIntra, PortControl, ExcludeMsg{From: s.cfg.Self, Dead: dead}, sizeControl)
				}
			}
			s.exclude(dead, "ring heartbeat loss")
		}
	}
}

// onHeartbeat is the server's PortHB datagram handler.
func (s *Server) onHeartbeat(from cnet.NodeID, m cnet.Message) {
	hb, ok := m.(*HBMsg)
	if !ok {
		return
	}
	s.env.Charge(costControl)
	s.peerLoad(hb.From, hb.Load)
	if hb.From == s.ring.pred {
		s.ring.lastHB = s.env.Clock().Now()
	}
	hb.Release()
}

// include admits n to the ring in O(1): n becomes the successor if it lies
// closer above self on the ring than the successor does, and the
// predecessor if it lies closer below than the predecessor does, which is
// where recompute over the sorted view would put it. A fresh predecessor
// gets a full grace window. Formation includes every node on every node,
// and a recompute per include made it cubic in the cluster size.
func (r *ringDetector) include(n cnet.NodeID) {
	if !r.enabled {
		return
	}
	self := r.s.cfg.Self
	if r.succ == cnet.None || r.above(self, n) < r.above(self, r.succ) {
		r.succ = n
	}
	if r.pred == cnet.None || r.above(n, self) < r.above(r.pred, self) {
		r.pred = n
		r.lastHB = r.s.env.Clock().Now()
	}
}

// above is how far b lies above a going up the ring of node ids.
func (r *ringDetector) above(a, b cnet.NodeID) int {
	d := int(b) - int(a)
	if d < 0 {
		d += len(r.s.view)
	}
	return d
}

// recompute re-derives ring neighbours from the sorted view, after an
// exclusion. A fresh predecessor gets a full grace window.
func (r *ringDetector) recompute() {
	if !r.enabled {
		return
	}
	view := r.s.sortedView()
	if len(view) <= 1 {
		r.pred, r.succ = cnet.None, cnet.None
		return
	}
	self := r.s.cfg.Self
	idx := -1
	for i, n := range view {
		if n == self {
			idx = i
			break
		}
	}
	if idx < 0 {
		r.pred, r.succ = cnet.None, cnet.None
		return
	}
	newSucc := view[(idx+1)%len(view)]
	newPred := view[(idx-1+len(view))%len(view)]
	r.succ = newSucc
	if newPred != r.pred {
		r.pred = newPred
		r.lastHB = r.s.env.Clock().Now()
	}
}
