package membership

import (
	"fmt"
	"slices"
	"time"

	"press/internal/clock"
	"press/internal/cnet"
	"press/internal/metrics"
)

// epidemic is the scale-out agreement (Config.Gossip): no join
// multicasts, no ring, no 2PC — just the per-round digest push. Each
// daemon's view is the set of peers whose heartbeat counters are still
// advancing, so splinters and rejoins are implicit.
type epidemic struct {
	*Daemon
	// missDetail is the constant stale-counter detect reason, formatted
	// once at construction.
	missDetail string
	// stale is the liveness budget: the ring's miss count plus
	// ceil(log2 N) rounds for a counter increment to flood the cluster
	// through bounded-fanout pushes.
	stale time.Duration

	// Own and remembered heartbeat counters, and the last time fresh
	// evidence arrived for each peer.
	counts map[cnet.NodeID]uint64
	gseen  map[cnet.NodeID]time.Duration
	peerOK map[cnet.NodeID]bool

	tickT clock.Ticker

	// gossipPool recycles digest records; receivers release them.
	gossipPool cnet.MsgPool[MGossip]
	pickBuf    []cnet.NodeID //availlint:skipfield pickBuf scratch, refilled at the start of every round
}

func newEpidemic(d *Daemon) *epidemic {
	if len(d.cfg.Peers) == 0 {
		panic("membership: Config.Peers is required when Config.Gossip is set (the daemon would stay a singleton)")
	}
	rounds := d.cfg.HBMiss
	for n := 1; n < len(d.cfg.Peers); n *= 2 {
		rounds++
	}
	g := &epidemic{
		Daemon:     d,
		missDetail: fmt.Sprintf("membership: counter stale for %d gossip rounds", rounds),
		stale:      time.Duration(rounds) * d.cfg.HBPeriod,
		counts:     map[cnet.NodeID]uint64{d.cfg.Self: 1},
		gseen:      map[cnet.NodeID]time.Duration{d.cfg.Self: d.env.Clock().Now()},
		peerOK:     make(map[cnet.NodeID]bool, len(d.cfg.Peers)),
	}
	for _, p := range d.cfg.Peers {
		g.peerOK[p] = true
	}
	return g
}

func (g *epidemic) start() {
	g.install(1, g.members, "boot")
	g.tickT = g.env.Clock().Every(g.cfg.HBPeriod, g.tick)
}

// tick runs one epidemic round: bump our own counter, push the full
// digest to gossipFanout distinct random peers, and refresh the derived
// view. Target draws come from the env's deterministic stream; the digest
// is built by walking the static sorted peer list, never by ranging a map.
func (g *epidemic) tick() {
	g.counts[g.cfg.Self]++
	g.gseen[g.cfg.Self] = g.env.Clock().Now()
	g.pickBuf = g.pickBuf[:0]
	for _, p := range g.cfg.Peers {
		if p != g.cfg.Self {
			g.pickBuf = append(g.pickBuf, p)
		}
	}
	rng := g.env.Rand()
	k := gossipFanout
	if k > len(g.pickBuf) {
		k = len(g.pickBuf)
	}
	for i := 0; i < k; i++ {
		// Partial Fisher-Yates: the first k slots become a uniform draw of
		// k distinct targets.
		j := i + rng.Intn(len(g.pickBuf)-i)
		g.pickBuf[i], g.pickBuf[j] = g.pickBuf[j], g.pickBuf[i]
		msg := NewMGossip(&g.gossipPool)
		msg.From = g.cfg.Self
		for _, p := range g.cfg.Peers {
			if c, ok := g.counts[p]; ok {
				msg.Nodes = append(msg.Nodes, p)
				msg.Counts = append(msg.Counts, c)
			}
		}
		g.env.Send(g.pickBuf[i], cnet.ClassIntra, Port, msg, 48+12*len(msg.Nodes))
	}
	g.recompute()
}

func (g *epidemic) onMessage(from cnet.NodeID, m cnet.Message) {
	switch msg := m.(type) {
	case *MGossip:
		g.merge(msg)
		msg.Release()
	case MNodeDown:
		if g.isMember(msg.Node) && msg.Node != g.cfg.Self {
			g.emit(metrics.KDetect, msg.Node, "application NodeDown hint")
			delete(g.gseen, msg.Node)
			g.recompute()
		}
	}
}

// merge folds a received digest into our counters: a strictly larger
// counter is fresh evidence for that node. Receiving our own counter
// from the future means we restarted behind the cluster's memory of us
// — jump past it so peers see a new incarnation. The sender itself is
// directly evidenced by the message's arrival.
func (g *epidemic) merge(msg *MGossip) {
	now := g.env.Clock().Now()
	for i, n := range msg.Nodes {
		if !g.peerOK[n] {
			continue
		}
		c := msg.Counts[i]
		if n == g.cfg.Self {
			if c > g.counts[n] {
				g.counts[n] = c + 1
			}
			continue
		}
		if c > g.counts[n] {
			g.counts[n] = c
			g.gseen[n] = now
		}
	}
	if g.peerOK[msg.From] && msg.From != g.cfg.Self {
		g.gseen[msg.From] = now
	}
	g.recompute()
}

// recompute derives the view: self plus every peer whose evidence is
// within the staleness deadline. A changed view is installed through the
// same path the ring uses, so version numbers, the published segment and
// join/leave events behave identically.
func (g *epidemic) recompute() {
	now := g.env.Clock().Now()
	next := make([]cnet.NodeID, 0, len(g.members))
	for _, p := range g.cfg.Peers {
		if p == g.cfg.Self {
			next = append(next, p)
			continue
		}
		if seen, ok := g.gseen[p]; ok && now-seen <= g.stale {
			next = append(next, p)
		}
	}
	if slices.Equal(next, g.members) {
		return
	}
	for _, m := range g.members {
		if m != g.cfg.Self && !slices.Contains(next, m) {
			g.emit(metrics.KDetect, m, g.missDetail)
			delete(g.gseen, m)
		}
	}
	g.install(g.version+1, next, "gossip")
}
