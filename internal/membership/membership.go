// Package membership implements the robust group membership service the
// paper adds to PRESS (§4.2): a variation of the three-round membership
// algorithm of Cristian and Schmuck.
//
// Nodes arrange themselves in a logical ring and monitor their upstream
// and downstream neighbours with heartbeats. Members are added and removed
// through a two-phase commit driven by a coordinator: the detector of a
// failure coordinates the exclusion; a joining node multicasts a join
// request to a well-known group, collects offers from current members,
// and asks one of them to coordinate its admission. Network partitions
// yield independent sub-groups that each make progress; when connectivity
// heals, smaller groups dissolve into better ones through the same join
// path — which is exactly the mechanism that repairs PRESS's splintering
// once the underlying fault is gone.
//
// The daemon is a process of its own (it survives application crashes and
// hangs — the root of the divergent views FME later reconciles). It
// publishes the current group to a shared-memory segment (Published); the
// application links the client library (Client), which polls the segment
// and delivers callbacks, and may hint at dead nodes via NodeDown.
//
// That algorithm is ring.go. The scale-out suite replaces it with an
// epidemic one (epidemic.go, Config.Gossip); NewDaemon picks one, and this
// file holds only what both share: the configuration, the wire messages,
// the view and its publication, and the client library.
package membership

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"press/internal/clock"
	"press/internal/cnet"
	"press/internal/metrics"
	"press/internal/snapio"
)

// Port and group names.
const (
	Port      = "membd"
	JoinGroup = "memb-join"
)

// Config parameterizes a daemon.
type Config struct {
	Self cnet.NodeID
	// HBPeriod and HBMiss match the paper: heartbeats every 5 s, three
	// consecutive losses declare a neighbour dead.
	HBPeriod time.Duration
	HBMiss   int

	// Gossip switches the daemon from the paper's ring heartbeats +
	// three-round reorganization to the scale-out epidemic mode: each
	// HBPeriod the daemon bumps its own heartbeat counter and pushes a
	// full (node, counter) digest to gossipFanout random peers; receivers
	// merge counter-wise, so liveness information floods the cluster in
	// O(log N) rounds regardless of size, and no round-based agreement is
	// needed — each daemon's view is simply the set of peers whose
	// counters are still advancing. Splinters and rejoins are implicit:
	// a partition starves the counters on the far side, healing lets
	// them flow again.
	Gossip bool
	// Peers is the static candidate set gossip draws targets from (the
	// cluster's server IDs; self is skipped). Required in gossip mode —
	// NewDaemon panics without it — and ignored by the ring.
	Peers []cnet.NodeID
}

// gossipFanout is how many peers each epidemic round's digest goes to.
const gossipFanout = 3

// The ring's other timings follow from the heartbeat period: a node that
// believes its group could be bigger multicasts a join request every
// seekPeriod, a joiner collects offers for offerWindow before choosing a
// coordinator, and ackTimeout bounds the two-phase commit's first round.
func (c Config) seekPeriod() time.Duration  { return 2 * c.HBPeriod }
func (c Config) offerWindow() time.Duration { return c.HBPeriod / 10 }
func (c Config) ackTimeout() time.Duration  { return c.HBPeriod / 2 }

func (c Config) withDefaults() Config {
	if c.HBPeriod <= 0 {
		c.HBPeriod = 5 * time.Second
	}
	if c.HBMiss <= 0 {
		c.HBMiss = 3
	}
	return c
}

// Published is the shared-memory segment: the daemon writes the group
// view, application-side clients read it. It is shared between processes
// on one machine and outlives application restarts.
type Published struct {
	mu      sync.Mutex
	version uint64
	members []cnet.NodeID
}

// Snapshot returns the current view.
func (p *Published) Snapshot() (uint64, []cnet.NodeID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]cnet.NodeID, len(p.members))
	copy(out, p.members)
	return p.version, out
}

func (p *Published) set(version uint64, members []cnet.NodeID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.version = version
	p.members = append([]cnet.NodeID(nil), members...)
}

// Wire messages; RegisterMessages (snapshot.go) gives each its one encoding.

// MHeartbeat is a ring-neighbour heartbeat. It travels as a pooled
// pointer (see cnet.MsgPool); the receiver releases it.
type MHeartbeat struct {
	From cnet.NodeID
	Ver  uint64

	home *cnet.MsgPool[MHeartbeat]
}

// NewMHeartbeat takes a zeroed heartbeat record from pool.
func NewMHeartbeat(pool *cnet.MsgPool[MHeartbeat]) *MHeartbeat {
	m := pool.Get()
	m.home = pool
	return m
}

// Release recycles the record into its home pool (no-op without one).
func (m *MHeartbeat) Release() {
	if h := m.home; h != nil {
		*m = MHeartbeat{home: h}
		h.Put(m)
	}
}

// MGossip is the epidemic mode's digest: parallel (node, heartbeat
// counter) columns covering every node the sender has heard of. It
// travels as a pooled pointer whose slices keep their capacity across
// recycling, so a steady-state gossip round allocates nothing.
type MGossip struct {
	From   cnet.NodeID
	Nodes  []cnet.NodeID
	Counts []uint64

	home *cnet.MsgPool[MGossip]
}

// NewMGossip takes a digest record from pool (slices emptied, capacity
// retained).
func NewMGossip(pool *cnet.MsgPool[MGossip]) *MGossip {
	m := pool.Get()
	m.home = pool
	return m
}

// Release recycles the record into its home pool (no-op without one).
func (m *MGossip) Release() {
	if h := m.home; h != nil {
		m.From = cnet.None
		m.Nodes = m.Nodes[:0]
		m.Counts = m.Counts[:0]
		h.Put(m)
	}
}

// MJoinReq is multicast by a node seeking a (better) group.
type MJoinReq struct {
	From    cnet.NodeID
	Size    int
	MinID   cnet.NodeID
	Members []cnet.NodeID
}

// MJoinOffer answers a join request with the responder's view.
type MJoinOffer struct {
	From    cnet.NodeID
	Ver     uint64
	Members []cnet.NodeID
}

// MJoinAsk asks the chosen coordinator to run the admission 2PC.
type MJoinAsk struct{ From cnet.NodeID }

// MPrepare is round one of a view change.
type MPrepare struct {
	From    cnet.NodeID
	Ver     uint64
	Members []cnet.NodeID // proposed view
	Subject cnet.NodeID   // the node being added/removed (informational)
	Add     bool
}

// MAck acknowledges a prepare.
type MAck struct {
	From cnet.NodeID
	Ver  uint64
}

// MCommit installs a prepared view.
type MCommit struct {
	From    cnet.NodeID
	Ver     uint64
	Members []cnet.NodeID
}

// MNodeDown is the application's hint (client library NodeDown()).
type MNodeDown struct {
	From cnet.NodeID
	Node cnet.NodeID
}

// Daemon is the membership server process. It holds what both protocol
// suites share — the view, its version and the published segment — and
// owns one agreement value that decides when the view changes.
type Daemon struct {
	cfg Config
	env cnet.Env
	pub *Published
	src metrics.SourceID

	version uint64
	members []cnet.NodeID // sorted, includes self

	agree agreement
}

// agreement is the protocol that decides the view: the paper's ring
// (ring.go) or the scale-out epidemic (epidemic.go). Each speaks only its
// own messages on Port — a datagram of the other suite falls through its
// switch — and changes the view through Daemon.install.
type agreement interface {
	// start installs the boot view and arms the protocol's tickers.
	start()
	onMessage(from cnet.NodeID, m cnet.Message)
	// snap moves the protocol's state across a snapshot (snapshot.go).
	snap(x *snapio.Ctx)
}

// NewDaemon starts a membership daemon on env, publishing into pub.
func NewDaemon(cfg Config, env cnet.Env, pub *Published) *Daemon {
	d := newDaemon(cfg, env, pub)
	d.agree.start()
	return d
}

// newDaemon builds the daemon and binds its port, everything but the boot
// view and the tickers — shared by NewDaemon and the snapshot Restore path.
func newDaemon(cfg Config, env cnet.Env, pub *Published) *Daemon {
	d := &Daemon{
		cfg:     cfg.withDefaults(),
		env:     env,
		pub:     pub,
		members: []cnet.NodeID{cfg.Self},
	}
	d.src = metrics.InternSource(fmt.Sprintf("membd/%d", d.cfg.Self))
	if d.cfg.Gossip {
		d.agree = newEpidemic(d)
	} else {
		d.agree = newRing(d)
	}
	d.env.BindDatagram(Port, d.agree.onMessage)
	return d
}

// Members returns the daemon's current view (tests).
func (d *Daemon) Members() []cnet.NodeID {
	out := make([]cnet.NodeID, len(d.members))
	copy(out, d.members)
	return out
}

// Version returns the current view version.
func (d *Daemon) Version() uint64 { return d.version }

func (d *Daemon) emit(kind metrics.KindID, node cnet.NodeID, detail string) {
	d.env.Events().EmitID(d.env.Clock().Now(), d.src, kind, int(node), detail)
}

func (d *Daemon) isMember(n cnet.NodeID) bool { return slices.Contains(d.members, n) }

// install adopts a view: sorts it, publishes it, and logs who joined and
// who left.
func (d *Daemon) install(ver uint64, members []cnet.NodeID, why string) {
	slices.Sort(members)
	old := d.members
	d.version = ver
	d.members = append([]cnet.NodeID(nil), members...)
	d.pub.set(ver, d.members)
	for _, m := range d.members {
		if !slices.Contains(old, m) && m != d.cfg.Self {
			d.emit(metrics.KMemberJoin, m, why)
		}
	}
	for _, m := range old {
		if !slices.Contains(d.members, m) && m != d.cfg.Self {
			d.emit(metrics.KMemberLeave, m, why)
		}
	}
}

// Client is the application-side library (§4.2): it polls the shared
// segment and calls the application back with view updates, and lets the
// application hint at dead nodes.
type Client struct {
	env   cnet.Env
	pub   *Published
	poll  time.Duration
	pollT clock.Ticker
	subs  []func(members []cnet.NodeID)
}

// NewClient attaches a client to the local node's published view.
func NewClient(env cnet.Env, pub *Published, poll time.Duration) *Client {
	c := newClient(env, pub, poll)
	c.pollT = c.env.Clock().Every(c.poll, c.pollTick)
	return c
}

func newClient(env cnet.Env, pub *Published, poll time.Duration) *Client {
	if poll <= 0 {
		poll = time.Second
	}
	return &Client{env: env, pub: pub, poll: poll}
}

// Subscribe registers a callback invoked on every poll with the current
// member list. It satisfies server.MembershipView.
func (c *Client) Subscribe(fn func(members []cnet.NodeID)) {
	c.subs = append(c.subs, fn)
}

// NodeDown forwards the application's down-hint to the local daemon.
func (c *Client) NodeDown(n cnet.NodeID) {
	c.env.Send(c.env.Local(), cnet.ClassIntra, Port, MNodeDown{From: c.env.Local(), Node: n}, 48)
}

func (c *Client) pollTick() {
	_, members := c.pub.Snapshot()
	for _, fn := range c.subs {
		fn(members)
	}
}
