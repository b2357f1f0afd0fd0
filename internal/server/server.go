package server

import (
	"fmt"

	"press/internal/clock"
	"press/internal/cnet"
	"press/internal/metrics"
	"press/internal/qmon"
	"press/internal/snapio"
	"press/internal/trace"
)

// Stats counts server-side work; the availability figures are measured at
// the clients, these are for tests and diagnostics.
type Stats struct {
	Served       uint64 // responses sent to clients
	LocalHits    uint64 // served from the local cache
	RemoteServed uint64 // served via a peer's cache/disk
	DiskReads    uint64 // local disk reads completed
	ForwardsOut  uint64 // requests forwarded to peers
	PeerServes   uint64 // forwarded requests served for peers
	Rerouted     uint64 // requests rerouted away from overloaded peers
	Excludes     uint64
	Includes     uint64
}

// Server is one PRESS process.
type Server struct {
	cfg  Config
	env  cnet.Env
	src  metrics.SourceID // interned "press/<self>" tag
	disk DiskArray
	memb MembershipView
	qm   queueMonitor // nil without queue monitoring

	cache *docCache
	dir   *directory
	proto dirProtocol

	// view and peers are dense by NodeID (server IDs are small ints):
	// membership tests and peer lookups run on every routed request, and
	// at 256 nodes the map hashing alone dominated the routing cost.
	view     []bool        // view[n] ⇔ n is in the cooperation set (self included)
	sorted   []cnet.NodeID // cached sorted view, rebuilt on its first read after a view change
	sortedOK bool          // validity of the sorted cache
	peers    []peer        // nil until the first record, then never moved; made: plumbing towards that node exists
	joined   bool

	active     int
	acceptQ    []pendingReq
	acceptHead int // consumed prefix of acceptQ (popped without re-slicing)
	nextID     uint64
	// inflight holds the admitted requests by id. Which request a client
	// connection carries is not kept here: the connection itself carries
	// the id, in the word its runtime keeps for the owner (Env.ConnWord).
	// admit writes it and nothing clears it — a connection carries one
	// request, and ids are never reused, so a finished request's id just
	// finds nothing.
	inflight reqTable
	// inbound lists the peer streams other nodes dialed, each at the slot
	// its word names (inWord). The receive path never looks here (the word
	// names the sender); a snapshot does.
	inbound []cnet.Conn

	// Hot-path recycling: the handler sets (client, send, inbound streams)
	// are built once per server, and the per-request records cycle through
	// free lists instead of being re-allocated for every request.
	clientH, sendH, inH cnet.StreamHandlers

	reqFree   []*reqState
	diskFree  []*diskOp
	admitFree []*admitOp

	// Live pooled continuations, indexed by their slot fields so snapshots
	// can enumerate in-flight work deterministically.
	diskOps  []*diskOp
	admitOps []*admitOp

	// Per-send message pools (see messages.go): the final consumer
	// releases each record back to its sender's pool.
	respPool   cnet.MsgPool[RespMsg]
	fwdPool    cnet.MsgPool[FwdMsg]
	fwdRepPool cnet.MsgPool[FwdReplyMsg]
	annPool    cnet.MsgPool[AnnounceMsg]
	hbPool     cnet.MsgPool[HBMsg]

	ring  ringDetector
	stats Stats

	joinTimer clock.Timer // the server is its owner (OnTimer)
}

// queueMonitor is what the server asks of a *qmon.Monitor.
type queueMonitor interface {
	Observe(peer cnet.NodeID, total, requests int)
	ShouldReroute(peer cnet.NodeID) bool
	ClearFailed(peer cnet.NodeID)
	Forget(peer cnet.NodeID)
	SnapState(x *snapio.Ctx)
}

type pendingReq struct {
	conn cnet.Conn
	msg  *ReqMsg
}

type reqState struct {
	id          uint64
	doc         trace.DocID
	client      cnet.Conn
	forwardedTo cnet.NodeID
	gen         uint64 // bumped on release; guards stale disk continuations
}

// New constructs and starts a PRESS server process on env. memb may be
// nil (no external membership service); disk must serve every document.
func New(cfg Config, env cnet.Env, disk DiskArray, memb MembershipView) *Server {
	s := newServer(cfg, env, disk, memb)
	s.start()
	return s
}

// newServer builds the server without starting it (no listens, no
// timers, no join protocol) — shared by New and the snapshot Restore
// path.
func newServer(cfg Config, env cnet.Env, disk DiskArray, memb MembershipView) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		env:   env,
		src:   metrics.InternSource(fmt.Sprintf("press/%d", cfg.Self)),
		disk:  disk,
		memb:  memb,
		cache: newDocCache(cfg.Catalog.DocsFitting(cfg.CacheBytes)),
		dir:   newDirectory(cfg.Nodes, cfg.Catalog.Docs),
	}
	s.sizeNodeTables()
	if cfg.Sharded {
		s.proto = shardedDir{s}
	} else {
		s.proto = broadcastDir{s}
	}
	s.viewAdd(cfg.Self)
	s.clientH = cnet.StreamHandlers{OnMessage: s.onClientMsg, OnClose: s.onClientClose}
	s.sendH = cnet.StreamHandlers{OnClose: s.onSendClose, OnWritable: s.onSendWritable}
	s.inH = cnet.StreamHandlers{OnMessage: s.onPeerMsg, OnClose: s.onPeerClose}
	if cfg.QMon {
		s.qm = qmon.New(qmon.Callbacks{
			OnReroute: func(p cnet.NodeID) {
				s.emit(metrics.KQMonReroute, int(p), "queue overloaded")
			},
			OnFail: func(p cnet.NodeID) {
				s.emit(metrics.KQMonFail, int(p), "queue threshold crossed")
				s.emitDetect(int(p), "qmon")
				s.exclude(p, "qmon")
			},
		}, env.Rand())
	}
	return s
}

// listen registers the server's ports: registration only, no events, so a
// restore runs it too.
func (s *Server) listen() {
	s.env.Listen(PortHTTP, s.acceptClient)
	if s.cfg.Cooperative {
		s.env.Listen(PortPress, s.acceptPeer)
		s.env.BindDatagram(PortControl, s.onControl)
		s.env.BindDatagram(PortHB, s.onHeartbeat)
	}
}

func (s *Server) start() {
	s.listen()
	if !s.cfg.Cooperative {
		s.joined = true
		s.emit(metrics.KServerUp, int(s.cfg.Self), "independent")
		return
	}
	s.ring.init(s)

	// Rejoin protocol (§3): broadcast our identity; the lowest-ID active
	// member answers with the current configuration. If nobody answers
	// within JoinTimeout this is a cold start and the static configuration
	// is adopted.
	for _, n := range s.cfg.Nodes {
		if n != s.cfg.Self {
			s.env.Send(n, cnet.ClassIntra, PortControl, JoinReqMsg{From: s.cfg.Self}, sizeControl)
		}
	}
	s.joinTimer = s.env.AfterFor(s.cfg.JoinTimeout, s)

	if s.memb != nil {
		s.memb.Subscribe(s.reconcileMembership)
	}
	s.emit(metrics.KServerUp, int(s.cfg.Self), "cooperative")
}

// OnTimer implements cnet.TimerOwner for the join timeout, which fires
// when no member answered the rejoin broadcast: this is a cold start and
// the static configuration is adopted.
func (s *Server) OnTimer() {
	if s.joined {
		return
	}
	s.adoptView(s.cfg.Nodes, "cold start")
}

// adoptView installs a full view at join time.
func (s *Server) adoptView(nodes []cnet.NodeID, why string) {
	s.joined = true
	if s.joinTimer != nil {
		s.joinTimer.Stop()
	}
	for _, n := range nodes {
		if n != s.cfg.Self && !s.inView(n) {
			s.include(n, why)
		}
	}
}

// inView reports n's cooperation-set membership — the hottest predicate
// in routing, so it must stay a bounds check and a load.
func (s *Server) inView(n cnet.NodeID) bool {
	return n >= 0 && int(n) < len(s.view) && s.view[n]
}

// sizeNodeTables sizes the view, dense by NodeID, for the static
// configuration, once; the peer table takes its length when the first
// record is made (peer). Neither grows: the peer records live in theirs by
// value and are held by pointer. include admits no id without a slot, and
// a snapshot's ids are checked against the configuration.
func (s *Server) sizeNodeTables() {
	n := int(s.cfg.Self) + 1
	for _, id := range s.cfg.Nodes {
		n = max(n, int(id)+1)
	}
	s.view = make([]bool, n)
}

// hasSlot reports whether the node tables have a slot for n.
func (s *Server) hasSlot(n cnet.NodeID) bool { return n >= 0 && int(n) < len(s.view) }

func (s *Server) viewAdd(n cnet.NodeID) { s.view[n] = true }

func (s *Server) viewDel(n cnet.NodeID) {
	if n >= 0 && int(n) < len(s.view) {
		s.view[n] = false
	}
}

// Sorted view (self included).
func (s *Server) sortedView() []cnet.NodeID {
	if !s.sortedOK {
		// Reuse the backing array: view changes are frequent during ramp
		// (every include on every node), and a fresh allocation per read
		// after one is pure GC load. Callers use the slice before the next
		// change. The dense walk yields ascending IDs, so no sort is needed.
		// Sized from the static view, it never grows.
		if s.sorted == nil {
			s.sorted = make([]cnet.NodeID, 0, len(s.view))
		}
		s.sorted = s.sorted[:0]
		for n, in := range s.view {
			if in {
				s.sorted = append(s.sorted, cnet.NodeID(n))
			}
		}
		s.sortedOK = true
	}
	return s.sorted
}

// View returns the current cooperation set, sorted, self included.
func (s *Server) View() []cnet.NodeID {
	out := make([]cnet.NodeID, len(s.sortedView()))
	copy(out, s.sortedView())
	return out
}

// Active returns the number of requests currently holding service slots.
func (s *Server) Active() int { return s.active }

// QueuedAccepts returns requests waiting for a slot.
func (s *Server) QueuedAccepts() int { return len(s.acceptQ) - s.acceptHead }

// Stats returns a copy of the server counters.
func (s *Server) Stats() Stats { return s.stats }

// SendQueueLen reports the send-queue length towards peer (tests).
func (s *Server) SendQueueLen(n cnet.NodeID) int {
	if p := s.peerAt(n); p != nil {
		return p.q.len()
	}
	return 0
}

// include admits n to the cooperation set (NodeIn). A Hello or a join
// response naming a node the static configuration does not list admits
// nothing.
func (s *Server) include(n cnet.NodeID, why string) {
	if n == s.cfg.Self || s.inView(n) || !s.hasSlot(n) {
		return
	}
	s.viewAdd(n)
	s.sortedOK = false
	s.ring.include(n)
	s.stats.Includes++
	if s.qm != nil {
		s.qm.ClearFailed(n)
	}
	s.emit(metrics.KInclude, int(n), why)
	s.connectPeer(n)
}

// exclude removes n from the cooperation set (NodeOut) and reroutes its
// pending work.
func (s *Server) exclude(n cnet.NodeID, why string) {
	if n == s.cfg.Self || !s.inView(n) {
		return
	}
	s.viewDel(n)
	s.sortedOK = false
	s.ring.recompute()
	s.stats.Excludes++
	s.emit(metrics.KExclude, int(n), why)
	s.dir.DropNode(n)
	if s.qm != nil {
		s.qm.Forget(n)
	}
	if p := s.peerAt(n); p != nil {
		p.teardown()
	}
	// Requests forwarded to n — still queued or already sent and awaiting
	// a reply — are rerouted ("to other cooperative peers or the disk
	// queue"). Queued ones are covered here too: forward() stamps
	// forwardedTo before enqueueing.
	var requeue []uint64
	for _, st := range s.inflight.ascending() {
		if st.forwardedTo == n {
			requeue = append(requeue, st.id)
		}
	}
	for _, id := range requeue {
		st := s.inflight.get(id)
		if st == nil {
			continue
		}
		st.forwardedTo = cnet.None
		s.route(st)
	}
}

// reconcileMembership folds the external membership view into the
// cooperation set. It runs on every poll of the published view, so a peer
// excluded by queue monitoring but still in the membership group is
// re-admitted here — the conflicting-recovery seam of §4.4.
func (s *Server) reconcileMembership(members []cnet.NodeID) {
	if !s.joined {
		s.joined = true
		if s.joinTimer != nil {
			s.joinTimer.Stop()
		}
	}
	in := make(map[cnet.NodeID]bool, len(members))
	for _, n := range members {
		in[n] = true
	}
	// Collect first, exclude after: exclude() re-derives the ring, which
	// rebuilds the sorted-view cache in place under this iteration.
	var drop []cnet.NodeID
	for _, n := range s.sortedView() {
		if n != s.cfg.Self && !in[n] {
			drop = append(drop, n)
		}
	}
	for _, n := range drop {
		s.exclude(n, "membership NodeOut")
	}
	static := make(map[cnet.NodeID]bool, len(s.cfg.Nodes))
	for _, n := range s.cfg.Nodes {
		static[n] = true
	}
	for _, n := range members {
		if n != s.cfg.Self && static[n] && !s.inView(n) {
			s.include(n, "membership NodeIn")
		}
	}
}

// onControl handles the join protocol and exclude broadcasts.
func (s *Server) onControl(from cnet.NodeID, m cnet.Message) {
	s.env.Charge(costControl)
	switch msg := m.(type) {
	case JoinReqMsg:
		if !s.joined {
			return
		}
		// Lowest-ID active member answers with the configuration.
		if s.sortedView()[0] != s.cfg.Self {
			return
		}
		resp := JoinRespMsg{From: s.cfg.Self, View: s.View()}
		s.env.Send(msg.From, cnet.ClassIntra, PortControl, resp, sizeControl+4*len(resp.View))
	case JoinRespMsg:
		if s.joined {
			return
		}
		s.adoptView(append(msg.View, msg.From), "join response")
	case ExcludeMsg:
		if msg.Dead == s.cfg.Self {
			return // we are apparently dead to them; splinter, do nothing
		}
		if !s.inView(msg.From) {
			// Exclusion claims from outside our cooperation set are stale
			// ring state — e.g. a node that just thawed from a freeze and
			// thinks everyone else missed its heartbeats.
			return
		}
		if s.inView(msg.Dead) {
			s.exclude(msg.Dead, fmt.Sprintf("ring broadcast from %d", msg.From))
		}
	case *AnnounceMsg:
		if s.inView(msg.From) {
			s.dir.Set(msg.From, msg.Doc, msg.Cached)
			s.peerLoad(msg.From, msg.Load)
		}
		msg.Release()
	}
}

func (s *Server) emit(kind metrics.KindID, node int, detail string) {
	s.env.Events().EmitID(s.env.Clock().Now(), s.src, kind, node, detail)
}

func (s *Server) emitDetect(node int, by string) {
	s.env.Events().EmitID(s.env.Clock().Now(), s.src, metrics.KDetect, node, by)
}
