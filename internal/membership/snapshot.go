package membership

import (
	"time"

	"press/internal/cnet"
	"press/internal/snapio"
)

// Snapshot support. The published segment outlives the processes that
// write and read it, so it has a walk of its own; the daemon's is its view
// plus whichever agreement it runs; the client library's is its poll
// ticker (the application subscribes again when it is restored).

// RegisterMessages describes the membership datagrams to the codec, so
// that a mailbox, an in-flight packet or a livenet datagram can carry
// them. The two pooled ones decode as pool-less records.
func RegisterMessages(c *snapio.MsgCodec) {
	nodes := func(x *snapio.Ctx, s *[]cnet.NodeID) { snapio.Ints(x, s, 1<<16) }
	c.Register("memb.Heartbeat", (*MHeartbeat)(nil), func(x *snapio.Ctx, m any) any {
		h := m.(*MHeartbeat)
		if h == nil {
			h = new(MHeartbeat)
		}
		snapio.Int(x, &h.From)
		x.U64(&h.Ver)
		return h
	})
	c.Register("memb.Gossip", (*MGossip)(nil), func(x *snapio.Ctx, m any) any {
		g := m.(*MGossip)
		if g == nil {
			g = new(MGossip)
		}
		snapio.Int(x, &g.From)
		nodes(x, &g.Nodes)
		snapio.Slice(x, &g.Counts, 1<<16, x.U64)
		return g
	})
	c.Register("memb.JoinReq", MJoinReq{}, func(x *snapio.Ctx, m any) any {
		r := m.(MJoinReq)
		snapio.Int(x, &r.From)
		snapio.Int(x, &r.Size)
		snapio.Int(x, &r.MinID)
		nodes(x, &r.Members)
		return r
	})
	c.Register("memb.JoinOffer", MJoinOffer{}, func(x *snapio.Ctx, m any) any {
		o := m.(MJoinOffer)
		o.snap(x)
		return o
	})
	c.Register("memb.JoinAsk", MJoinAsk{}, func(x *snapio.Ctx, m any) any {
		a := m.(MJoinAsk)
		snapio.Int(x, &a.From)
		return a
	})
	c.Register("memb.Prepare", MPrepare{}, func(x *snapio.Ctx, m any) any {
		p := m.(MPrepare)
		snapio.Int(x, &p.From)
		x.U64(&p.Ver)
		nodes(x, &p.Members)
		snapio.Int(x, &p.Subject)
		x.Bool(&p.Add)
		return p
	})
	c.Register("memb.Ack", MAck{}, func(x *snapio.Ctx, m any) any {
		a := m.(MAck)
		snapio.Int(x, &a.From)
		x.U64(&a.Ver)
		return a
	})
	c.Register("memb.Commit", MCommit{}, func(x *snapio.Ctx, m any) any {
		cm := m.(MCommit)
		snapio.Int(x, &cm.From)
		x.U64(&cm.Ver)
		nodes(x, &cm.Members)
		return cm
	})
	c.Register("memb.NodeDown", MNodeDown{}, func(x *snapio.Ctx, m any) any {
		d := m.(MNodeDown)
		snapio.Int(x, &d.From)
		snapio.Int(x, &d.Node)
		return d
	})
}

func (o *MJoinOffer) snap(x *snapio.Ctx) {
	snapio.Int(x, &o.From)
	x.U64(&o.Ver)
	snapio.Ints(x, &o.Members, 1<<16)
}

// SnapState moves the shared segment.
func (p *Published) SnapState(x *snapio.Ctx) {
	p.mu.Lock()
	defer p.mu.Unlock()
	x.U64(&p.version)
	snapio.Ints(x, &p.members, 1<<16)
}

// SnapState moves the daemon: its view, then its agreement's state.
func (d *Daemon) SnapState(x *snapio.Ctx) {
	x.U64(&d.version)
	snapio.Ints(x, &d.members, 1<<16)
	d.agree.snap(x)
}

// Restore rebuilds a daemon inside a snapshot restore: port bound, state
// loaded, no boot view installed and nothing armed that was not armed.
func Restore(cfg Config, env cnet.RestoreEnv, pub *Published, x *snapio.Ctx) *Daemon {
	d := newDaemon(cfg, env, pub)
	d.SnapState(x)
	return d
}

// times moves a node → instant table.
func times(x *snapio.Ctx, m map[cnet.NodeID]time.Duration) {
	snapio.Map(x, m, 1<<16, func(n *cnet.NodeID, at *time.Duration) {
		snapio.Int(x, n)
		snapio.Int(x, at)
	})
}

func (r *ring) snap(x *snapio.Ctx) {
	x.Define(r) // the offer window's owner
	times(x, r.lastSeen)
	x.Bool(&r.busy)

	waiting := r.wait != nil
	if x.Bool(&waiting); waiting {
		if !x.Saving() {
			r.wait = &ackWait{acked: map[cnet.NodeID]bool{}}
		}
		w := r.wait
		x.U64(&w.ver)
		snapio.Ints(x, &w.proposed, 1<<16)
		snapio.Map(x, w.acked, 1<<16, func(n *cnet.NodeID, ok *bool) {
			snapio.Int(x, n)
			x.Bool(ok)
		})
		snapio.Int(x, &w.need)
		snapio.Int(x, &w.subject)
		x.Bool(&w.add)
	}
	for i := range x.Len(len(r.acks), 1<<16) {
		var ver uint64
		if x.Saving() {
			ver = r.acks[i].ver
		}
		x.U64(&ver)
		if !x.Saving() {
			r.armAckTimeout(ver)
		}
		x.Define(r.acks[i])
	}

	snapio.Slice(x, &r.offers, 1<<16, func(o *MJoinOffer) { o.snap(x) })
	x.Bool(&r.collecting)

	cnet.SnapTicker(x, r.env, &r.hbT, r.cfg.HBPeriod, r.tick, "membership: heartbeat")
	// The seek loop picks its next period itself, every pass (seekLater).
	cnet.SnapTicker(x, r.env, &r.seekT, r.cfg.seekPeriod(), r.seek, "membership: seek")
}

func (g *epidemic) snap(x *snapio.Ctx) {
	snapio.Map(x, g.counts, 1<<16, func(n *cnet.NodeID, c *uint64) {
		snapio.Int(x, n)
		x.U64(c)
	})
	times(x, g.gseen)
	cnet.SnapTicker(x, g.env, &g.tickT, g.cfg.HBPeriod, g.tick, "membership: gossip round")
}

// SnapState moves the client library's poll loop.
func (c *Client) SnapState(x *snapio.Ctx) {
	cnet.SnapTicker(x, c.env, &c.pollT, c.poll, c.pollTick, "membership: client poll")
}

// RestoreClient rebuilds the client library inside a snapshot restore.
func RestoreClient(env cnet.RestoreEnv, pub *Published, poll time.Duration, x *snapio.Ctx) *Client {
	c := newClient(env, pub, poll)
	c.SnapState(x)
	return c
}
