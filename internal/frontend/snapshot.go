package frontend

import (
	"press/internal/cnet"
	"press/internal/snapio"
)

// Snapshot support. The front-end moves its routing table, its two
// monitors' tickers, and every relay and connection probe in progress —
// as data: which connections a record holds, what it still waits for. Each
// record defines itself for the dials it owns; the handler closures are
// built again with the records, and Restore hands them back to the
// connections. A restored connection is not pooled, so the pins the
// records hold on theirs (cnet.RetainConn) are not taken again.

// RegisterMessages describes the echo stand-ins to the codec, so that a
// mailbox, an in-flight datagram or a livenet one can carry them.
func RegisterMessages(c *snapio.MsgCodec) {
	c.Register("fe.Ping", PingMsg{}, func(x *snapio.Ctx, m any) any {
		p := m.(PingMsg)
		snapio.Int(x, &p.From)
		x.U64(&p.Seq)
		return p
	})
	c.Register("fe.Pong", PongMsg{}, func(x *snapio.Ctx, m any) any {
		p := m.(PongMsg)
		snapio.Int(x, &p.From)
		x.U64(&p.Seq)
		return p
	})
}

// SnapState moves the front-end; loading, into the one Restore built.
func (f *Frontend) SnapState(x *snapio.Ctx) {
	snapio.Int(x, &f.rr)
	x.U64(&f.relayed)
	x.U64(&f.probeSeq)
	for _, n := range f.cfg.Backends {
		b := f.backends[n]
		snapio.Int(x, &b.pingMisses)
		x.Bool(&b.pingDown)
		x.Bool(&b.connDown)
		x.Bool(&b.isolated)
		x.Bool(&b.awaitingPong)
		snapio.Ints(x, &b.lastView, 1<<16)
	}
	cnet.SnapTicker(x, f.env, &f.pingT, f.cfg.PingPeriod, f.pingTick, "frontend: ping")
	if f.probing() {
		cnet.SnapTicker(x, f.env, &f.connT, f.cfg.ConnPeriod, f.connProbeTick, "frontend: connection probe")
	}

	for i := range x.Len(len(f.live), 1<<20) {
		var r *relay
		if x.Saving() {
			r = f.live[i]
		} else {
			r = f.newRelay()
		}
		x.Define(r)
		snapio.OptConn(x, &r.client)
		snapio.OptConn(x, &r.backend)
		waiting := r.req != nil
		if x.Bool(&waiting); waiting {
			snapio.Msg(x, &r.req)
		}
		snapio.Int(x, &r.dials)
		x.Bool(&r.closed)
	}

	for i := range x.Len(len(f.probes), 1<<20) {
		var p *probe
		var n cnet.NodeID
		if x.Saving() {
			p, n = f.probes[i], f.probes[i].n
		}
		if snapio.Int(x, &n); !x.Saving() {
			if f.backends[n] == nil {
				snapio.Failf("frontend: probe of unknown backend %d", n)
			}
			p = f.newProbe(n)
		}
		x.Define(p)
		x.Bool(&p.finished)
		snapio.OptConn(x, &p.conn)
		x.Bool(&p.dialing)
		x.Bool(&p.expired)
	}
}

// Restore rebuilds a front-end inside a snapshot restore: ports
// registered, state loaded through SnapState, and handlers re-attached to
// every connection the process carried across.
func Restore(cfg Config, env cnet.RestoreEnv, x *snapio.Ctx) *Frontend {
	f := newFrontend(cfg, env)
	f.SnapState(x)

	handlers := make(map[cnet.Conn]cnet.StreamHandlers, 2*len(f.live)+len(f.probes))
	for _, r := range f.live {
		if r.client != nil {
			handlers[r.client] = r.clientH
		}
		if r.backend != nil {
			handlers[r.backend] = r.backendH
		}
	}
	for _, p := range f.probes {
		if p.conn != nil {
			handlers[p.conn] = p.h
		}
	}
	cnet.RestoreConns(env, handlers)
	return f
}
