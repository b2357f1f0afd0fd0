// Package frontend implements the paper's front-end tier (§4.1): an
// LVS-style request distributor that hides the server nodes behind one
// address and masks node failures by not routing to nodes its monitor
// believes are down, plus the monitoring refinements studied in §6.2.
//
// Monitoring layers, each switchable per version:
//
//   - mon pinger (§4.1): ICMP-style echo to each node every 5 s; three
//     missed replies mark the node down. Pings are answered by the node's
//     network stack, so a crashed or hung *application* still answers —
//     the blind spot the paper measures.
//   - C-MON (§6.2): TCP/HTTP connection monitoring with a 2 s deadline,
//     which does see application crashes and hangs, faster.
//   - S-FME (§6.2): the probe replies carry each server's cooperation
//     set; nodes isolated from the largest reported set are taken out of
//     rotation so clients stop losing requests to splintered singletons.
//
// The real LVS forwards packets and lets servers reply directly to
// clients (IP tunneling); this model relays messages through the
// front-end instead, which preserves everything availability-relevant
// (routing table, masking latency, FE failure) at a small fidelity cost
// in data-path bandwidth that none of the experiments are sensitive to.
package frontend

import (
	"fmt"
	"time"

	"press/internal/clock"
	"press/internal/cnet"
	"press/internal/metrics"
	"press/internal/server"
	"press/internal/trace"
)

// Ports.
const (
	// PortPing is the ICMP-echo stand-in answered by the machine's
	// network stack (a dedicated trivial process, not the application).
	PortPing = "icmp"
)

// relayCost is the CPU charged per relayed request. Like the server's
// CPU costs it is part of the node model's calibration (DESIGN §5), so no
// configuration sets it.
const relayCost = 500 * time.Microsecond

// Config parameterizes the front-end.
type Config struct {
	Self     cnet.NodeID
	Backends []cnet.NodeID

	// PingPeriod / PingMiss: the mon daemon's probe cadence (5 s, 3).
	PingPeriod time.Duration
	PingMiss   int

	// ConnMonitor enables C-MON; ConnDeadline is its 2 s detection bound.
	ConnMonitor  bool
	ConnPeriod   time.Duration
	ConnDeadline time.Duration

	// SFME enables isolation masking from probe-carried cooperation sets.
	SFME bool

	// ShardRoute sends each request to the healthy backend that owns the
	// document's shard (the same mod-N placement the sharded directory
	// uses), falling back to round-robin when the owner is masked. This
	// makes first-hop routing land on the directory authority, so the
	// scale-out protocol usually serves with zero extra hops.
	ShardRoute bool
}

func (c Config) withDefaults() Config {
	if c.PingPeriod <= 0 {
		c.PingPeriod = 5 * time.Second
	}
	if c.PingMiss <= 0 {
		c.PingMiss = 3
	}
	if c.ConnPeriod <= 0 {
		c.ConnPeriod = time.Second
	}
	if c.ConnDeadline <= 0 {
		c.ConnDeadline = 2 * time.Second
	}
	return c
}

// backendState tracks one server node in the routing table.
type backendState struct {
	pingMisses   int
	pingDown     bool
	connDown     bool
	isolated     bool
	awaitingPong bool
	lastView     []cnet.NodeID
}

func (b *backendState) healthy() bool { return !b.pingDown && !b.connDown && !b.isolated }

// Frontend is the request-distributor process.
type Frontend struct {
	cfg      Config
	env      cnet.Env
	backends map[cnet.NodeID]*backendState
	rr       int
	route    func(trace.DocID) cnet.NodeID // pick or pickOwner, chosen once by newFrontend
	relayed  uint64
	probeSeq uint64
	relays   cnet.MsgPool[relay]

	// live and probes list the relays and the connection probes in
	// progress, each record at the index its slot field holds, so that a
	// snapshot can enumerate them; pingT and connT drive the two monitors.
	live   []*relay
	probes []*probe
	pingT  clock.Ticker
	connT  clock.Ticker
}

// New starts a front-end process on env.
func New(cfg Config, env cnet.Env) *Frontend {
	f := newFrontend(cfg, env)
	f.pingT = f.env.Clock().Every(f.cfg.PingPeriod, f.pingTick)
	if f.probing() {
		f.connT = f.env.Clock().Every(f.cfg.ConnPeriod, f.connProbeTick)
	}
	return f
}

// newFrontend builds the front-end and registers its ports, everything
// but the monitors' tickers — shared by New and the snapshot Restore path.
func newFrontend(cfg Config, env cnet.Env) *Frontend {
	f := &Frontend{cfg: cfg.withDefaults(), env: env, backends: make(map[cnet.NodeID]*backendState)}
	for _, b := range f.cfg.Backends {
		f.backends[b] = &backendState{}
	}
	f.route = f.pick
	if f.cfg.ShardRoute {
		f.route = f.pickOwner
	}
	env.Listen(server.PortHTTP, f.acceptClient)
	env.BindDatagram(PortPing, f.onPong)
	return f
}

// probing reports whether the C-MON / S-FME connection probes run.
func (f *Frontend) probing() bool { return f.cfg.ConnMonitor || f.cfg.SFME }

// Healthy returns the nodes currently in rotation, in Config.Backends
// order (tests and the S-FME bench inspect it).
func (f *Frontend) Healthy() []cnet.NodeID {
	var out []cnet.NodeID
	for _, n := range f.cfg.Backends {
		if f.backends[n].healthy() {
			out = append(out, n)
		}
	}
	return out
}

// Relayed returns the number of requests forwarded.
func (f *Frontend) Relayed() uint64 { return f.relayed }

func (f *Frontend) emit(kind metrics.KindID, node cnet.NodeID, detail string) {
	f.env.Events().EmitID(f.env.Clock().Now(), metrics.SrcFrontend, kind, int(node), detail)
}

func (f *Frontend) setDown(n cnet.NodeID, field *bool, down bool, why string) {
	b := f.backends[n]
	wasHealthy := b.healthy()
	*field = down
	nowHealthy := b.healthy()
	switch {
	case wasHealthy && !nowHealthy:
		f.emit(metrics.KFrontendMask, n, why)
		f.emit(metrics.KDetect, n, "frontend: "+why)
	case !wasHealthy && nowHealthy:
		f.emit(metrics.KFrontendUnmask, n, why)
	}
}

// pick returns the next healthy backend round-robin, or None, whatever
// the document: the faithful suite's route.
func (f *Frontend) pick(trace.DocID) cnet.NodeID {
	n := len(f.cfg.Backends)
	for i := 0; i < n; i++ {
		cand := f.cfg.Backends[f.rr%n]
		f.rr++
		if f.backends[cand].healthy() {
			return cand
		}
	}
	return cnet.None
}

// pickOwner is the ShardRoute route: doc's shard owner when healthy,
// otherwise the round-robin choice.
func (f *Frontend) pickOwner(doc trace.DocID) cnet.NodeID {
	owner := f.cfg.Backends[int(doc)%len(f.cfg.Backends)]
	if f.backends[owner].healthy() {
		return owner
	}
	return f.pick(doc)
}

// relay is the state of one client connection being relayed to a backend.
// Records are pooled on the Frontend (so they never cross processes or
// runtimes) and their handler closures are built once per record and
// capture only the record, the way workload.request and server.reqState
// do it: relaying a request allocates nothing.
//
// A record goes back to the pool the moment both connections are closed
// and no dial result is owed, which is earlier than the last callback
// that can still name it: a message or close already queued in the
// process mailbox is dispatched after closeBoth, possibly after the
// record has a new tenant. Every handler therefore first checks that the
// connection it was called for is the one the record holds now — the
// queued entry pins its connection, so a pooled connection cannot have
// been reused in the meantime, and the comparison is exact. The relay is
// its backend dials' owner (cnet.DialOwner), so it stays with its tenant
// while a dial result is owed.
type relay struct {
	f       *Frontend
	slot    int
	client  cnet.Conn
	backend cnet.Conn
	req     *server.ReqMsg // waiting for the backend dial
	dials   int            // dial results still owed to this tenant
	closed  bool

	clientH  cnet.StreamHandlers
	backendH cnet.StreamHandlers
}

// newRelay takes a record for a new tenant and lists it as live.
func (f *Frontend) newRelay() *relay {
	r := f.relays.Get()
	if r.f == nil {
		r.f = f
		r.clientH = cnet.StreamHandlers{OnMessage: r.clientMessage, OnClose: r.connClosed}
		r.backendH = cnet.StreamHandlers{OnMessage: r.backendMessage, OnClose: r.connClosed}
	}
	r.slot = len(f.live)
	f.live = append(f.live, r)
	return r
}

// acceptClient relays one request to a backend.
func (f *Frontend) acceptClient(client cnet.Conn) cnet.StreamHandlers {
	r := f.newRelay()
	r.client = client
	return r.clientH
}

// closeBoth tears the relay down, once, and recycles the record unless a
// dial result is still owed (DialResult recycles it then).
func (r *relay) closeBoth() {
	if r.closed {
		return
	}
	r.closed = true
	r.client.Close()
	if r.backend != nil {
		r.backend.Close()
		cnet.ReleaseConn(r.backend) // pin taken when the relay stored it
	}
	r.recycle()
}

func (r *relay) recycle() {
	if r.dials > 0 {
		return
	}
	live := r.f.live
	last := live[len(live)-1]
	live[r.slot], last.slot = last, r.slot
	live[len(live)-1] = nil
	r.f.live = live[:len(live)-1]
	r.client, r.backend, r.req, r.closed = nil, nil, nil, false
	r.f.relays.Put(r)
}

func (r *relay) clientMessage(c cnet.Conn, m cnet.Message) {
	req, ok := m.(*server.ReqMsg)
	if !ok || c != r.client {
		return
	}
	f := r.f
	f.env.Charge(relayCost)
	target := f.route(req.Doc)
	if target == cnet.None {
		r.closeBoth() // nothing healthy: the client sees a reset
		return
	}
	f.relayed++
	r.req = req
	r.dials++
	f.env.DialFor(target, cnet.ClassClient, server.PortHTTP, r)
}

// DialHandlers implements cnet.DialOwner.
func (r *relay) DialHandlers() cnet.StreamHandlers { return r.backendH }

// DialResult implements cnet.DialOwner.
func (r *relay) DialResult(bc cnet.Conn, err error) {
	r.dials--
	if r.closed {
		if bc != nil {
			bc.Close()
		}
		r.recycle()
		return
	}
	if err != nil {
		// LVS does not retry: the loss is the client's.
		r.closeBoth()
		return
	}
	r.backend = bc
	cnet.RetainConn(bc) // held by the relay until closeBoth
	bc.TrySend(r.req, 256)
	r.req = nil
}

// backendMessage relays the response and leaves the teardown to the
// client's close. The record is passed through unreleased: the client is
// the final consumer.
func (r *relay) backendMessage(bc cnet.Conn, bm cnet.Message) {
	if bc != r.backend || r.closed {
		return
	}
	if resp, ok := bm.(*server.RespMsg); ok {
		size := 128
		if resp.OK {
			size += 27 * 1024
		}
		r.client.TrySend(resp, size)
	}
}

// connClosed serves both ends: either one closing ends the relay.
func (r *relay) connClosed(c cnet.Conn, err error) {
	if c == r.client || c == r.backend {
		r.closeBoth()
	}
}

// --- mon pinger -----------------------------------------------------------

func (f *Frontend) pingTick() {
	for _, n := range f.cfg.Backends {
		b := f.backends[n]
		if b.awaitingPong {
			b.pingMisses++
			if b.pingMisses >= f.cfg.PingMiss && !b.pingDown {
				f.setDown(n, &b.pingDown, true, fmt.Sprintf("%d pings missed", b.pingMisses))
			}
		}
		b.awaitingPong = true
		f.env.Send(n, cnet.ClassClient, PortPing, PingMsg{From: f.cfg.Self, Seq: f.probeSeq}, 32)
	}
	f.probeSeq++
}

func (f *Frontend) onPong(from cnet.NodeID, m cnet.Message) {
	if _, ok := m.(PongMsg); !ok {
		return
	}
	b := f.backends[from]
	if b == nil {
		return
	}
	b.awaitingPong = false
	b.pingMisses = 0
	if b.pingDown {
		f.setDown(from, &b.pingDown, false, "ping restored")
	}
}

// --- C-MON / S-FME probes ---------------------------------------------------

func (f *Frontend) connProbeTick() {
	for _, n := range f.cfg.Backends {
		f.probeBackend(n)
	}
}

// probe is one HTTP probe of a backend under the C-MON deadline. It is
// listed in Frontend.probes until its deadline has fired and its dial
// result has arrived; every connection it held is closed by then, so a
// callback still queued for one finds the probe finished and does nothing.
// The probe is its dial's owner (cnet.DialOwner) and its deadline's
// (cnet.TimerOwner).
type probe struct {
	f        *Frontend
	n        cnet.NodeID
	slot     int
	finished bool
	conn     cnet.Conn
	dialing  bool // the dial result is still owed
	expired  bool // the deadline has fired

	h cnet.StreamHandlers
}

func (f *Frontend) newProbe(n cnet.NodeID) *probe {
	p := &probe{f: f, n: n, slot: len(f.probes)}
	p.h = cnet.StreamHandlers{OnMessage: p.onMessage, OnClose: p.onClose}
	f.probes = append(f.probes, p)
	return p
}

// probeBackend runs one HTTP probe against n with the C-MON deadline.
func (f *Frontend) probeBackend(n cnet.NodeID) {
	p := f.newProbe(n)
	f.env.AfterFor(f.cfg.ConnDeadline, p)
	p.dialing = true
	f.env.DialFor(n, cnet.ClassClient, server.PortHTTP, p)
}

func (p *probe) fail() {
	if p.finished {
		return
	}
	p.finished = true
	if p.conn != nil {
		p.conn.Close()
	}
	f, b := p.f, p.f.backends[p.n]
	if f.cfg.ConnMonitor && !b.connDown {
		f.setDown(p.n, &b.connDown, true, "connection probe failed")
	}
	b.lastView = nil
	f.refreshIsolation()
}

// OnTimer implements cnet.TimerOwner: the C-MON deadline.
func (p *probe) OnTimer() {
	p.fail()
	if p.conn != nil {
		cnet.ReleaseConn(p.conn) // the deadline always outlives the probe's hold
	}
	p.expired = true
	p.retire()
}

func (p *probe) onMessage(c cnet.Conn, m cnet.Message) {
	resp, ok := m.(*server.RespMsg)
	if !ok {
		return
	}
	isProbe, view := resp.Probe, resp.View
	resp.Release() // the View slice itself is never recycled
	if !isProbe || p.finished {
		return
	}
	p.finished = true
	c.Close()
	f, b := p.f, p.f.backends[p.n]
	if b.connDown {
		f.setDown(p.n, &b.connDown, false, "connection probe restored")
	}
	b.lastView = view
	f.refreshIsolation()
}

func (p *probe) onClose(c cnet.Conn, err error) { p.fail() }

// DialHandlers implements cnet.DialOwner.
func (p *probe) DialHandlers() cnet.StreamHandlers { return p.h }

// DialResult implements cnet.DialOwner.
func (p *probe) DialResult(c cnet.Conn, err error) {
	p.dialing = false
	defer p.retire()
	if p.finished {
		if c != nil {
			c.Close()
		}
		return
	}
	if err != nil {
		p.fail()
		return
	}
	p.conn = c
	cnet.RetainConn(c) // held across events until the deadline fires
	p.f.probeSeq++
	c.TrySend(&server.ReqMsg{ID: p.f.probeSeq, Probe: true}, 64)
}

// retire unlists a probe nothing can call back any more.
func (p *probe) retire() {
	if !p.expired || p.dialing {
		return
	}
	ps := p.f.probes
	last := ps[len(ps)-1]
	ps[p.slot], last.slot = last, p.slot
	ps[len(ps)-1] = nil
	p.f.probes = ps[:len(ps)-1]
}

// refreshIsolation recomputes S-FME masking: the reference cooperation
// set is the largest one reported; responsive nodes outside it are
// isolated splinters and leave the rotation.
func (f *Frontend) refreshIsolation() {
	if !f.cfg.SFME {
		return
	}
	var ref []cnet.NodeID
	for _, n := range f.cfg.Backends {
		if v := f.backends[n].lastView; len(v) > len(ref) {
			ref = v
		}
	}
	inRef := make(map[cnet.NodeID]bool, len(ref))
	for _, n := range ref {
		inRef[n] = true
	}
	for _, n := range f.cfg.Backends {
		b := f.backends[n]
		iso := len(b.lastView) > 0 && len(ref) > len(b.lastView) && !inRef[n]
		if iso != b.isolated {
			why := "isolated from cooperation set"
			if !iso {
				why = "rejoined cooperation set"
			}
			f.setDown(n, &b.isolated, iso, why)
		}
	}
}

// PingMsg / PongMsg are the ICMP echo stand-ins.
type PingMsg struct {
	From cnet.NodeID
	Seq  uint64
}

// PongMsg answers a ping.
type PongMsg struct {
	From cnet.NodeID
	Seq  uint64
}

// NewPingResponder installs the machine-level echo responder; it runs as
// its own trivial process so it keeps answering while the application is
// crashed or hung, exactly like a kernel's ICMP reply.
func NewPingResponder(env cnet.Env) {
	env.BindDatagram(PortPing, func(from cnet.NodeID, m cnet.Message) {
		if ping, ok := m.(PingMsg); ok {
			env.Send(from, cnet.ClassClient, PortPing, PongMsg{From: env.Local(), Seq: ping.Seq}, 32)
		}
	})
}
