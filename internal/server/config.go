// Package server implements PRESS (§3), the locality-conscious
// cluster-based web server whose availability the paper studies, in both
// of the paper's arrangements:
//
//   - COOP: nodes cooperate to manage the cluster's memory as one cache.
//     Any node may receive a request (the initial node); it serves locally
//     on a cache hit, otherwise forwards to the service node chosen from
//     the caching directory and piggybacked load information. Caching
//     decisions are broadcast; heartbeats run around a directed ring; a
//     restarted node rejoins by broadcast.
//
//   - INDEP: the same server with all cooperation disabled; every node
//     serves only from its own cache and disks.
//
// The availability subsystems bolt on without changing this package's
// core logic, mirroring the paper's evolutionary approach: the built-in
// ring detector can be switched off in favour of an external membership
// view, and queue monitoring (package qmon) observes the per-peer send
// queues this package already maintains.
package server

import (
	"time"

	"press/internal/cnet"
	"press/internal/trace"
)

// Well-known port names.
const (
	PortHTTP    = "http"     // client-class: requests from clients / front-end / FME probe
	PortPress   = "press"    // intra-class streams: forwards, replies, directory
	PortHB      = "hb"       // intra-class datagrams: ring heartbeats
	PortControl = "pressctl" // intra-class datagrams: exclude broadcasts, join protocol
)

// The node model's calibration: the CPU time charged on the main
// coordinating thread for each kind of work. Values are at the
// simulation's time scale (~10x 2003 hardware); only their ratios to the
// disk service time and to each other matter. Together they make roughly
// 11 ms of main-thread CPU per request in the cooperative configuration,
// so a 4-node cluster saturates near 360 req/s while the independent
// version is disk-bound near 120 req/s — the paper's 3x cooperation
// factor (TestCooperationThroughputFactor).
const (
	costAccept    = 4 * time.Millisecond    // accept + parse one client request
	costLocalHit  = 6 * time.Millisecond    // serve a request from the local cache (incl. reply to client)
	costForward   = 1500 * time.Microsecond // enqueue + send one forward to a peer
	costPeerServe = 4 * time.Millisecond    // service-node work for a forwarded request (cache hit)
	costReply     = 3500 * time.Microsecond // initial-node work to relay a peer's reply to the client
	costDiskDone  = 2 * time.Millisecond    // post-disk-read bookkeeping (cache insert + announce)
	costControl   = 200 * time.Microsecond  // heartbeat / announcement / directory message handling
)

// maxConcurrent bounds requests in service; beyond it, arrivals queue
// unserved (and typically die by client timeout). This is the resource
// through which a stuck peer stalls the whole cluster. acceptBacklog
// (the listen backlog) bounds how many may queue; beyond that new
// connections are rejected.
const (
	maxConcurrent = 32
	acceptBacklog = 4 * maxConcurrent
)

// Config assembles one PRESS server process.
type Config struct {
	// Self is this node; Nodes is the static cluster (cold-start view).
	Self  cnet.NodeID
	Nodes []cnet.NodeID

	// Cooperative selects COOP (true) or INDEP (false).
	Cooperative bool

	// Sharded switches the caching directory from the faithful
	// broadcast protocol to the scale-out partitioned one: caching
	// decisions go only to the document's home node (hash placement),
	// which relays misses to a known holder on the requester's behalf.
	// Per-insert directory traffic drops from O(N) to O(1), which is
	// what lets the protocol suite run at hundreds of nodes.
	Sharded bool

	// RingDetector enables PRESS's built-in directed-ring heartbeat fault
	// detector (§3). The MEM/QMON/... versions disable it and rely on
	// their subsystems instead.
	RingDetector    bool
	HeartbeatPeriod time.Duration // default 5s

	// JoinTimeout bounds the rejoin broadcast wait; if no member answers,
	// the node assumes a cold start and adopts the static view.
	JoinTimeout time.Duration

	// CacheBytes is the local file-cache capacity.
	CacheBytes int64
	// Catalog describes the (fully replicated) document set.
	Catalog *trace.Catalog

	// QMon enables queue monitoring (§4.3, at qmon's fixed thresholds).
	QMon bool

	// MembershipPoll is read by nothing: the membership client's poll
	// period is an argument of membership.NewClient. It stays only
	// because cmd/pressbench sets it.
	MembershipPoll time.Duration
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.HeartbeatPeriod <= 0 {
		c.HeartbeatPeriod = 5 * time.Second
	}
	if c.JoinTimeout <= 0 {
		c.JoinTimeout = 2 * time.Second
	}
	if c.Catalog == nil {
		c.Catalog = trace.Default()
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 128 << 20
	}
	return c
}

// MembershipView is the membership client library surface the server
// consumes (§4.2). Subscribe's callback runs in server context on every
// poll of the published view, with the full member list.
type MembershipView interface {
	Subscribe(fn func(members []cnet.NodeID))
}

// DiskArray is the disk subsystem surface the server needs (implemented
// by simdisk.Array, and by livenet.MemDisk on a live stack). An operation
// is handed the record that owns it, which the subsystem calls back from
// its own context — on a live stack, another goroutine.
type DiskArray interface {
	// ReadFor submits a read keyed by document; owner.DiskDone hears the
	// outcome. It reports false when the queue is full (the caller must
	// stall).
	ReadFor(key int, owner interface{ DiskDone(ok bool) }) bool
	// NotifySpace parks owner for a one-shot DiskSpace wakeup when the
	// queue has room again.
	NotifySpace(owner interface{ DiskSpace() })
}
