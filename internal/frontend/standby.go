package frontend

import (
	"time"

	"press/internal/clock"
	"press/internal/cnet"
	"press/internal/metrics"
)

// The paper models a redundant front-end pair ("heartbeats and IP
// take-over", §4.1) without building one; this file builds it. The
// standby watches the primary with echo probes and, after the usual
// three-miss deadline, takes over the virtual address that clients dial.
// From that moment its own Frontend instance — which has been running and
// monitoring backends all along — receives the traffic.

// PortPair carries the pair's heartbeats. It is distinct from PortPing:
// the front-end process itself owns PortPing for backend monitoring, and
// one machine port has one owner.
const PortPair = "fepair"

// TakeoverControl is the IP-takeover actuation surface (the gratuitous
// ARP, in effect). The simulator backs it with simnet's address alias.
type TakeoverControl interface {
	Takeover()
}

// NewPairResponder installs the primary-side echo for the pair heartbeat;
// it runs as its own trivial process so it answers for as long as the
// machine is alive.
func NewPairResponder(env cnet.Env) {
	env.BindDatagram(PortPair, func(from cnet.NodeID, m cnet.Message) {
		if ping, ok := m.(PingMsg); ok {
			env.Send(from, cnet.ClassClient, PortPair, PongMsg{From: env.Local(), Seq: ping.Seq}, 32)
		}
	})
}

// StandbyConfig parameterizes the backup's monitor.
type StandbyConfig struct {
	Self     cnet.NodeID
	Primary  cnet.NodeID
	HBPeriod time.Duration // default 1s — pair heartbeats are cheap
}

// standbyMiss is how many consecutive pair heartbeats the primary may miss
// before the standby takes its address over.
const standbyMiss = 3

func (c StandbyConfig) withDefaults() StandbyConfig {
	if c.HBPeriod <= 0 {
		c.HBPeriod = time.Second
	}
	return c
}

// Standby is the backup front-end's failure monitor.
type Standby struct {
	cfg      StandbyConfig
	env      cnet.Env
	ctl      TakeoverControl
	seq      uint64
	awaiting bool
	misses   int
	active   bool

	hb clock.Ticker
}

// NewStandby starts monitoring the primary. The caller runs a Frontend on
// the same process so traffic is served immediately after takeover.
func NewStandby(cfg StandbyConfig, env cnet.Env, ctl TakeoverControl) *Standby {
	s := newStandby(cfg, env, ctl)
	s.hb = s.env.Clock().Every(s.cfg.HBPeriod, s.tick)
	return s
}

// KTakeover is the standby's own event kind: it took the primary's address.
var (
	KTakeover  = metrics.InternKind("fe.takeover")
	srcStandby = metrics.InternSource("fe-standby")
)

func newStandby(cfg StandbyConfig, env cnet.Env, ctl TakeoverControl) *Standby {
	s := &Standby{cfg: cfg.withDefaults(), env: env, ctl: ctl}
	env.BindDatagram(PortPair, s.onPong)
	return s
}

// Active reports whether takeover has happened.
func (s *Standby) Active() bool { return s.active }

func (s *Standby) tick() {
	if s.active {
		s.hb.Stop() // we are the front-end now; no failback
		return
	}
	if s.awaiting {
		s.misses++
		if s.misses >= standbyMiss {
			s.active = true
			s.env.Events().EmitInt(s.env.Clock().Now(), srcStandby, metrics.KDetect,
				int(s.cfg.Primary), "primary missed %d heartbeats", int64(s.misses))
			s.env.Events().EmitID(s.env.Clock().Now(), srcStandby, KTakeover,
				int(s.cfg.Self), "IP takeover")
			s.ctl.Takeover()
			s.hb.Stop()
			return
		}
	}
	s.awaiting = true
	s.seq++
	s.env.Send(s.cfg.Primary, cnet.ClassClient, PortPair, PingMsg{From: s.cfg.Self, Seq: s.seq}, 32)
}

func (s *Standby) onPong(from cnet.NodeID, m cnet.Message) {
	if _, ok := m.(PongMsg); !ok || from != s.cfg.Primary {
		return
	}
	s.awaiting = false
	s.misses = 0
}
