package server

import (
	"press/internal/cnet"
	"press/internal/trace"
)

// Wire messages. Each has one walk under RegisterMessages (snapshot.go),
// which is its encoding in a snapshot and on livenet's real sockets.
//
// The per-request types (ReqMsg, RespMsg, FwdMsg, FwdReplyMsg,
// AnnounceMsg, HBMsg) travel as pointers and recycle through cnet.MsgPool
// free lists: the sender takes a record from its pool, the final consumer
// calls Release. A record whose home pool is unset (a plain &ReqMsg{...}
// literal on a cold path, or a decoded copy on the livenet receive
// side) just leaks to the GC on Release, which is the old behaviour.

// ReqMsg is a client HTTP request. Probe requests are FME's liveness
// checks: they are answered immediately by the main thread without
// occupying a request slot, so they test exactly "is the main thread
// making progress".
type ReqMsg struct {
	ID    uint64
	Doc   trace.DocID
	Probe bool

	home *cnet.MsgPool[ReqMsg]
}

// NewReqMsg takes a zeroed request record from pool.
func NewReqMsg(pool *cnet.MsgPool[ReqMsg]) *ReqMsg {
	m := pool.Get()
	m.home = pool
	return m
}

// Release recycles the record into its home pool (no-op without one).
func (m *ReqMsg) Release() {
	if h := m.home; h != nil {
		*m = ReqMsg{home: h}
		h.Put(m)
	}
}

// RespMsg answers a ReqMsg on the client connection. Its wire size is the
// document size for real requests. Probe responses carry the server's
// current cooperation set, which the S-FME front-end monitor uses to spot
// isolated nodes (§6.2).
type RespMsg struct {
	ID    uint64
	OK    bool
	Probe bool
	View  []cnet.NodeID

	home *cnet.MsgPool[RespMsg]
}

// NewRespMsg takes a zeroed response record from pool.
func NewRespMsg(pool *cnet.MsgPool[RespMsg]) *RespMsg {
	m := pool.Get()
	m.home = pool
	return m
}

// Release recycles the record into its home pool (no-op without one).
// Retaining m.View past Release is safe: the slice is never reused, only
// the header field is cleared.
func (m *RespMsg) Release() {
	if h := m.home; h != nil {
		*m = RespMsg{home: h}
		h.Put(m)
	}
}

// HelloMsg identifies the sender on a freshly dialed intra-cluster
// connection; CacheDocs carries the sender's current cache contents so the
// receiver can seed its directory (the paper's "the rejoining node is sent
// the caching information of the respective node" — symmetric here).
type HelloMsg struct {
	From      cnet.NodeID
	CacheDocs []trace.DocID
}

// FwdMsg forwards a request from the initial node to the service node.
// In the sharded directory protocol a home node that misses locally
// relays the forward to a known holder with Origin set to the initial
// node, and the holder replies to Origin directly. Origin is cnet.None
// on a first-hop forward; because pool recycling zeroes the record (and
// NodeID 0 is a real node), every send site must set it explicitly.
type FwdMsg struct {
	ID     uint64
	Doc    trace.DocID
	Load   int // piggybacked open-request count of the sender
	Origin cnet.NodeID

	home *cnet.MsgPool[FwdMsg]
}

// NewFwdMsg takes a zeroed forward record from pool.
func NewFwdMsg(pool *cnet.MsgPool[FwdMsg]) *FwdMsg {
	m := pool.Get()
	m.home = pool
	return m
}

// Release recycles the record into its home pool (no-op without one).
func (m *FwdMsg) Release() {
	if h := m.home; h != nil {
		*m = FwdMsg{home: h}
		h.Put(m)
	}
}

// FwdReplyMsg returns the document to the initial node; its wire size is
// the document size.
type FwdReplyMsg struct {
	ID   uint64
	Doc  trace.DocID
	OK   bool
	Load int

	home *cnet.MsgPool[FwdReplyMsg]
}

// NewFwdReplyMsg takes a zeroed reply record from pool.
func NewFwdReplyMsg(pool *cnet.MsgPool[FwdReplyMsg]) *FwdReplyMsg {
	m := pool.Get()
	m.home = pool
	return m
}

// Release recycles the record into its home pool (no-op without one).
func (m *FwdReplyMsg) Release() {
	if h := m.home; h != nil {
		*m = FwdReplyMsg{home: h}
		h.Put(m)
	}
}

// AnnounceMsg broadcasts a caching decision (start caching / evict).
type AnnounceMsg struct {
	From   cnet.NodeID
	Doc    trace.DocID
	Cached bool
	Load   int

	home *cnet.MsgPool[AnnounceMsg]
}

// NewAnnounceMsg takes a zeroed announce record from pool.
func NewAnnounceMsg(pool *cnet.MsgPool[AnnounceMsg]) *AnnounceMsg {
	m := pool.Get()
	m.home = pool
	return m
}

// Release recycles the record into its home pool (no-op without one).
func (m *AnnounceMsg) Release() {
	if h := m.home; h != nil {
		*m = AnnounceMsg{home: h}
		h.Put(m)
	}
}

// HBMsg is a ring heartbeat.
type HBMsg struct {
	From cnet.NodeID
	Load int

	home *cnet.MsgPool[HBMsg]
}

// NewHBMsg takes a zeroed heartbeat record from pool.
func NewHBMsg(pool *cnet.MsgPool[HBMsg]) *HBMsg {
	m := pool.Get()
	m.home = pool
	return m
}

// Release recycles the record into its home pool (no-op without one).
func (m *HBMsg) Release() {
	if h := m.home; h != nil {
		*m = HBMsg{home: h}
		h.Put(m)
	}
}

// ExcludeMsg is broadcast by the ring detector when it declares a node
// dead, so the rest of the ring reconfigures at once.
type ExcludeMsg struct {
	From cnet.NodeID
	Dead cnet.NodeID
}

// JoinReqMsg is broadcast by a (re)starting node.
type JoinReqMsg struct {
	From cnet.NodeID
}

// JoinRespMsg is sent by the lowest-ID active member with the current
// configuration.
type JoinRespMsg struct {
	From cnet.NodeID
	View []cnet.NodeID
}

// approximate wire sizes (bytes) for the simulator's bandwidth model.
const (
	sizeReq     = 256
	sizeResp    = 128 // headers; body size added separately
	sizeFwd     = 192
	sizeHello   = 64 // plus 4 bytes per directory entry
	sizeHB      = 48
	sizeControl = 64
)
