package server_test

import (
	"testing"
	"time"

	"press/internal/cnet"
	"press/internal/machine"
	"press/internal/membership"
	"press/internal/metrics"
	"press/internal/sim"
	"press/internal/simnet"
)

// A heartbeat period on an idle, fully-formed 4-node cluster is the
// steady-state control-plane hot path: every node sends pooled heartbeat
// records and releases the ones it receives, so once the message and
// kernel pools are warm no record is allocated. Each row's bound is what
// a warm period allocates: nothing on the server's ring; on the
// membership ring the merge seek's view copy and retry timer (6), and in
// gossip the view recompute (16). A receive path that drops its Release
// leaks every record it gets: 4, 8 and 84 more objects per period.
func TestRingHeartbeatAllocsPerRun(t *testing.T) {
	for _, row := range []struct {
		name  string
		build func(t *testing.T) *sim.Sim
		want  float64 // objects a warm period allocates
	}{
		// The server's own ring detector (ring.go, onHeartbeat).
		{"server-ring", func(t *testing.T) *sim.Sim {
			return newTestCluster(t, clusterOpts{n: 4, coop: true, ring: true}).sim
		}, 0},
		// The membership daemon's ring heartbeat (ring.go, onMessage).
		{"membership-ring", func(t *testing.T) *sim.Sim {
			return membershipWorld(membership.Config{HBPeriod: time.Second, HBMiss: 3})
		}, 6},
		// The Scalable suite's gossip round (epidemic.go, onMessage).
		{"gossip", func(t *testing.T) *sim.Sim {
			peers := []cnet.NodeID{0, 1, 2, 3}
			return membershipWorld(membership.Config{HBPeriod: time.Second, HBMiss: 3, Gossip: true, Peers: peers})
		}, 16},
	} {
		t.Run(row.name, func(t *testing.T) {
			s := row.build(t)
			s.RunFor(18 * time.Second) // form the cluster, warm every pool
			period := time.Second
			if per := testing.AllocsPerRun(50, func() { s.RunFor(period) }); per > row.want {
				t.Errorf("a heartbeat period allocates %.2f objects across 4 nodes; want at most %.0f with warm pools", per, row.want)
			}
		})
	}
}

// membershipWorld starts a membership daemon configured by cfg on each of
// four machines.
func membershipWorld(cfg membership.Config) *sim.Sim {
	s := sim.New(11)
	log := &metrics.Log{}
	net := simnet.New(s, simnet.DefaultConfig(), log)
	for i := range 4 {
		c := cfg
		c.Self = cnet.NodeID(i)
		machine.New(s, net, c.Self, nil, log).AddProc("membd", func(env *machine.Env) {
			membership.NewDaemon(c, env, &membership.Published{})
		})
	}
	return s
}
