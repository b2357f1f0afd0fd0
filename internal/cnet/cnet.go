// Package cnet defines the narrow waist between the protocol components of
// this repository (PRESS server, membership service, queue monitor, FME
// daemon, front-end) and the runtime that hosts them.
//
// Two runtimes implement these interfaces:
//
//   - internal/simnet + internal/machine: the deterministic discrete-event
//     cluster used for all availability experiments (the stand-in for the
//     paper's testbed + Mendosus);
//   - internal/livenet: real goroutines and loopback TCP, used by
//     cmd/pressd and pressbench's live3 workload.
//
// The model is intentionally close to the sockets API the original PRESS
// used: unreliable datagrams (UDP) for heartbeats and membership,
// reliable ordered message streams (TCP) for intra-cluster request
// forwarding and client HTTP traffic, plus IP-multicast-style groups for
// membership join broadcasts.
package cnet

import (
	"errors"
	"math/rand"
	"time"

	"press/internal/clock"
	"press/internal/metrics"
)

// NodeID identifies a network endpoint. Server nodes are small dense
// integers; the front-end and client machines get IDs of their own.
type NodeID int

// None is the invalid NodeID.
const None NodeID = -1

// Class partitions traffic the way the paper's Mendosus testbed does:
// faults injected on the intra-cluster network (links, switch) never
// disturb client-server communication (§5).
type Class int

const (
	// ClassIntra is intra-cluster traffic: request forwarding, cache
	// directory broadcasts, heartbeats, membership.
	ClassIntra Class = iota
	// ClassClient is client-server traffic: HTTP requests and responses,
	// front-end forwarding and front-end probes.
	ClassClient
)

func (c Class) String() string {
	if c == ClassIntra {
		return "intra"
	}
	return "client"
}

// Message is an application-defined payload. Implementations deliver the
// same value that was sent: the simulator passes it by reference; livenet
// round-trips it through the snapshot codec (snapio.MsgCodec), so a type
// that crosses a socket is one its package's RegisterMessages names.
type Message any

// Transport errors delivered to OnClose and dial callbacks.
var (
	// ErrReset reports an abortive close: the peer process crashed or the
	// peer machine rebooted (RST semantics).
	ErrReset = errors.New("cnet: connection reset by peer")
	// ErrTimeout reports that a connection attempt got no answer (peer
	// machine down or frozen, or intra path broken).
	ErrTimeout = errors.New("cnet: connection timed out")
	// ErrRefused reports that the peer machine is up but nothing listens
	// on the port (the application process is dead).
	ErrRefused = errors.New("cnet: connection refused")
	// ErrClosed reports an orderly close by the peer.
	ErrClosed = errors.New("cnet: connection closed by peer")
)

// Conn is one end of a reliable, ordered message stream.
type Conn interface {
	// Peer returns the node at the other end.
	Peer() NodeID

	// TrySend queues m (occupying size wire bytes) for delivery. It
	// returns false when flow control (the receiver's window) is full, in
	// which case the caller keeps the message and waits for OnWritable —
	// this is how PRESS's self-monitoring send queues build up against a
	// stuck peer. Sends on a dead connection report true and discard the
	// message; the death is announced via OnClose.
	TrySend(m Message, size int) bool

	// Close closes the stream. The peer's OnClose receives ErrClosed.
	Close()
}

// ConnPinner is the optional pool-pin surface of a transport's
// connections. A transport that recycles connection allocations (simnet
// pools its pairs) cannot reclaim one while a component still holds the
// pointer in a record that outlives events — the old contract that
// operations on a dead Conn are silent no-ops would break the moment
// the allocation is reused. Components therefore pin: RetainConn when a
// record stores a Conn across events, ReleaseConn when the record drops
// it. Transports without pooling simply don't implement the interface.
type ConnPinner interface {
	Retain()
	Release()
}

// RetainConn pins c's backing allocation against recycling; a no-op for
// connections that are not pool-managed.
func RetainConn(c Conn) {
	if p, ok := c.(ConnPinner); ok {
		p.Retain()
	}
}

// ReleaseConn drops a RetainConn pin.
func ReleaseConn(c Conn) {
	if p, ok := c.(ConnPinner); ok {
		p.Release()
	}
}

// StreamHandlers are the callbacks a component attaches to a Conn. All
// callbacks run serialized on the owning process (the simulator's proc
// mailbox, or livenet's per-process task queue and run token).
type StreamHandlers struct {
	// OnMessage delivers the next in-order message.
	OnMessage func(c Conn, m Message)
	// OnClose reports stream death with one of the errors above. It is
	// called at most once; no OnMessage follows it.
	OnClose func(c Conn, err error)
	// OnWritable fires after TrySend returned false and window space is
	// available again. Optional.
	OnWritable func(c Conn)
}

// Env is everything a protocol component may touch. One Env is bound to
// one process on one node; when the process crashes and restarts, the
// component is reconstructed with a fresh Env, and all registrations made
// through the old one are dead — exactly like sockets and timers of a
// crashed Unix process.
type Env interface {
	// Local returns the node this process runs on.
	Local() NodeID

	// Clock returns a process-scoped clock: timers die with the process
	// and never fire while it is hung, frozen, or stopped. Its AfterFunc
	// is AfterFor(d, TimerFunc(fn)).
	Clock() clock.Clock

	// AfterFor arms a one-shot timer of the process clock for owner:
	// owner.OnTimer runs d from now, and a snapshot names the timer by
	// owner (the owner's own section defines it in ctx.Owners).
	AfterFor(d time.Duration, owner TimerOwner) clock.Timer

	// Hop is AfterFor(0, owner) for a caller that keeps no handle: owner's
	// OnTimer runs as a work item of its own, and the runtime may reuse
	// the timer's storage once it ran.
	Hop(owner TimerOwner)

	// Rand returns this process's deterministic random stream.
	Rand() *rand.Rand

	// Events returns the experiment-wide structured event log.
	Events() *metrics.Log

	// Charge accounts d of CPU time to the handler currently executing;
	// the process works through its mailbox serially, so charged time
	// delays everything behind it. No-op in live mode.
	Charge(d time.Duration)

	// Stall suspends mailbox processing (the PRESS main thread blocking on
	// a full disk queue); Resume lifts it. Resume may be called from
	// outside the process (a disk completion).
	Stall()
	Resume()

	// Send transmits a datagram; delivery is best-effort.
	Send(to NodeID, class Class, port string, m Message, size int)

	// Multicast transmits a datagram to every member of group (intra-
	// cluster traffic).
	Multicast(group, port string, m Message, size int)

	// JoinGroup subscribes this node to a multicast group.
	JoinGroup(group string)

	// BindDatagram registers the handler for datagrams arriving on port.
	BindDatagram(port string, h func(from NodeID, m Message))

	// DialFor opens a stream to (to, port) for owner: on success the Conn
	// gets owner.DialHandlers(), and owner.DialResult runs first, exactly
	// once, with either the live Conn or an error.
	DialFor(to NodeID, class Class, port string, owner DialOwner)

	// Dial is DialFor for a caller with closures and no record: every
	// runtime's is DialFor(to, class, port, &DialFuncs{h, result}).
	Dial(to NodeID, class Class, port string, h StreamHandlers, result func(Conn, error))

	// Listen accepts streams on port. For every accepted connection the
	// callback returns the handlers to attach.
	Listen(port string, accept func(c Conn) StreamHandlers)

	// SetConnWord and ConnWord write and read the one word the runtime
	// keeps, for the component that owns it, with each connection of this
	// process: what a server would otherwise look up in a table keyed by
	// connection. It is zero on a new connection and lasts until the
	// connection's OnClose has run; on a connection the process no longer
	// holds a write does nothing and a read may say zero.
	SetConnWord(c Conn, w uint64)
	ConnWord(c Conn) uint64
}

// DialOwner is the record that issued a dial: the runtime asks it for the
// new connection's handlers and tells it the verdict, and a snapshot names
// a dial outstanding by it (the owner's own section defines it in
// ctx.Owners).
type DialOwner interface {
	// DialHandlers returns the handlers the connection gets on success.
	DialHandlers() StreamHandlers
	// DialResult delivers the verdict, exactly once: a live conn or an error.
	DialResult(c Conn, err error)
}

// DialFuncs adapts Dial's closure pair to a DialOwner. No snapshot section
// defines it, so a capture taken while its dial is outstanding fails.
type DialFuncs struct {
	H      StreamHandlers
	Result func(Conn, error)
}

func (f *DialFuncs) DialHandlers() StreamHandlers { return f.H }
func (f *DialFuncs) DialResult(c Conn, err error) { f.Result(c, err) }

// TimerOwner is the record a timer fires for: the runtime runs its OnTimer,
// and a snapshot names a timer outstanding for it.
type TimerOwner interface {
	OnTimer()
}

// TimerFunc adapts AfterFunc's closure to a TimerOwner. No snapshot section
// defines it, so a capture taken while its timer is outstanding fails.
type TimerFunc func()

func (f TimerFunc) OnTimer() { f() }

// MsgPool recycles pointer records of one concrete type: the wire
// messages of the protocol hot path, which re-sends the same handful of
// records instead of boxing a fresh struct into the Message interface per
// send, and the simulator's own per-packet, per-dial, per-timer and
// per-request records. It is deliberately NOT thread-safe: in simulation
// every sender/receiver pair sharing a pool runs on the same
// single-threaded world loop, and over a real network (livenet) the
// receiver's copy is a fresh decode with no home pool — its Release is a
// no-op, so the pool never sees a cross-thread Put.
type MsgPool[T any] struct{ free []*T }

// poolCap bounds every free list. A pool exists to make steady-state
// traffic allocation-free, which takes as many spare records as the live
// count swings by between one burst and the next — tens, for any one list
// in this repository. What it must not do is remember a storm: booting a
// 256-node mesh dials 65,280 connections at t=0, and unbounded lists kept
// that high-water of dial, packet and wrapper records (a tenth of the live
// heap) for the rest of the run. Past the cap a returned record is simply
// dropped for the collector, and a later storm mints its records again.
const poolCap = 64

// Get pops a recycled record or allocates a new one. Records arrive
// zeroed: each type's Release resets every exported field before Put.
func (p *MsgPool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		m := p.free[n-1]
		p.free = p.free[:n-1]
		return m
	}
	return new(T)
}

// Forget drops every spare record: its owner knows the burst it kept them
// for is over.
func (p *MsgPool[T]) Forget() {
	if len(p.free) > 0 {
		clear(p.free)
		p.free = p.free[:0]
	}
}

// Put returns a record to the pool, or drops it when the pool is full.
// Callers (the typed Release methods) zero the record's payload fields
// first.
func (p *MsgPool[T]) Put(m *T) {
	if len(p.free) < poolCap {
		p.free = append(p.free, m)
	}
}
