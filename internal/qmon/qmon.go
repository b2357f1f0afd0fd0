// Package qmon implements the paper's application-level queue monitoring
// (§4.3): PRESS's send queue is split into self-monitoring queues, one per
// peer, and a fault anywhere that makes a peer fall behind shows up as
// growth of the corresponding queue.
//
// Two thresholds are maintained (§5): when a queue holds RerouteThreshold
// request messages the peer is treated as overloaded and most new requests
// destined for it are rerouted (a small probe fraction still goes through,
// so recovery can be noticed); when it reaches RequestThreshold request
// messages — or TotalThreshold messages of all types — the peer is
// declared failed.
//
// The monitor is deliberately a self-contained, reusable component with no
// dependency on PRESS: it observes (total, request) queue lengths and
// reports transitions. This mirrors the paper's COTS packaging and is what
// Table 2 counts as the "Queue Monitoring" enhancement.
package qmon

import (
	"math/rand"

	"press/internal/cnet"
)

// The thresholds: the paper's 512 / 256 / 128 settings scaled to the
// simulation's request rate (the paper ran ~10x more requests per second
// through the same heartbeat periods; scaling the thresholds by the same
// factor preserves detection latency).
const (
	TotalThreshold   = 64   // messages of all types ⇒ failed
	RequestThreshold = 32   // request messages ⇒ failed
	RerouteThreshold = 16   // request messages ⇒ overloaded, start rerouting
	ProbeFraction    = 0.05 // share of requests still sent to an overloaded queue
)

// Callbacks report state transitions. They are invoked synchronously from
// Observe.
type Callbacks struct {
	// OnReroute fires when a peer crosses into the overloaded regime.
	OnReroute func(peer cnet.NodeID)
	// OnRecover fires when an overloaded (but not failed) peer drains.
	OnRecover func(peer cnet.NodeID)
	// OnFail fires when a peer is declared failed.
	OnFail func(peer cnet.NodeID)
}

// Monitor tracks per-peer queue state. Forgotten peers' state records are
// recycled through a free list, so churn in the cooperation set (repeated
// exclusion and re-admission) reaches a steady state with no allocation.
type Monitor struct {
	cb    Callbacks
	rng   *rand.Rand
	state map[cnet.NodeID]*peerState
	free  []*peerState
}

type peerState struct {
	rerouting bool
	failed    bool
}

// New creates a Monitor. rng drives probe sampling and may be shared with
// the owning component.
func New(cb Callbacks, rng *rand.Rand) *Monitor {
	return &Monitor{cb: cb, rng: rng, state: make(map[cnet.NodeID]*peerState)}
}

func (m *Monitor) peer(id cnet.NodeID) *peerState {
	ps := m.state[id]
	if ps == nil {
		if n := len(m.free); n > 0 {
			ps = m.free[n-1]
			m.free[n-1] = nil
			m.free = m.free[:n-1]
			*ps = peerState{}
		} else {
			ps = &peerState{}
		}
		m.state[id] = ps
	}
	return ps
}

// Observe reports the current (total, request) lengths of the send queue
// for peer. The owning server calls it whenever the queue changes.
func (m *Monitor) Observe(peer cnet.NodeID, total, requests int) {
	ps := m.peer(peer)
	if ps.failed {
		return
	}
	if total >= TotalThreshold || requests >= RequestThreshold {
		ps.failed = true
		ps.rerouting = false
		if m.cb.OnFail != nil {
			m.cb.OnFail(peer)
		}
		return
	}
	if !ps.rerouting && requests >= RerouteThreshold {
		ps.rerouting = true
		if m.cb.OnReroute != nil {
			m.cb.OnReroute(peer)
		}
		return
	}
	if ps.rerouting && requests <= RerouteThreshold/2 {
		ps.rerouting = false
		if m.cb.OnRecover != nil {
			m.cb.OnRecover(peer)
		}
	}
}

// ShouldReroute decides the fate of one request destined for peer: true
// means send it elsewhere. While a peer is overloaded most requests
// reroute, but a probe fraction still goes through so that queue drain is
// observable. Failed peers always reroute (the server should have excluded
// them already; this is a safety net).
func (m *Monitor) ShouldReroute(peer cnet.NodeID) bool {
	ps := m.peer(peer)
	if ps.failed {
		return true
	}
	if !ps.rerouting {
		return false
	}
	return m.rng.Float64() >= ProbeFraction
}

// Failed reports whether peer has been declared failed.
func (m *Monitor) Failed(peer cnet.NodeID) bool { return m.peer(peer).failed }

// Rerouting reports whether peer is in the overloaded regime.
func (m *Monitor) Rerouting(peer cnet.NodeID) bool { return m.peer(peer).rerouting }

// Forget clears all state for peer (it left the cooperation set and its
// queue was torn down). The record is recycled.
func (m *Monitor) Forget(peer cnet.NodeID) {
	if ps, ok := m.state[peer]; ok {
		delete(m.state, peer)
		m.free = append(m.free, ps)
	}
}

// ClearFailed clears a failure verdict — the hook through which another
// subsystem (the membership service, in the paper's MQ configuration)
// re-admits a peer that queue monitoring had declared failed. This is the
// seam where the two subsystems' views of the world conflict (§4.4).
func (m *Monitor) ClearFailed(peer cnet.NodeID) {
	ps := m.peer(peer)
	ps.failed = false
	ps.rerouting = false
}
