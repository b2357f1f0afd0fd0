package membership_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"press/internal/cnet"
	"press/internal/machine"
	"press/internal/membership"
	"press/internal/metrics"
	"press/internal/sim"
	"press/internal/simnet"
)

// newSuiteWorld forms a 4-node group under one suite, with Peers set as
// harness, pressd and pressbench all set it, plus an outsider (node 9)
// that runs no daemon: it sends the stray datagrams and records whatever
// comes back to the membership port.
func newSuiteWorld(t *testing.T, gossip bool) (w *world, stray *machine.Env, replies *[]cnet.Message) {
	t.Helper()
	w = newWorldOf(t, 4, membership.Config{
		HBPeriod: time.Second, HBMiss: 3,
		Gossip: gossip, Peers: nodeIDs(4),
	})
	replies = new([]cnet.Message)
	machine.New(w.sim, w.net, 9, nil, w.log).AddProc("stray", func(env *machine.Env) {
		stray = env
		env.BindDatagram(membership.Port, func(from cnet.NodeID, m cnet.Message) {
			*replies = append(*replies, m)
		})
	})
	w.sim.RunFor(30 * time.Second)
	if !allInOneGroup(w, fullGroup(4)) {
		t.Fatalf("group did not form: %v", w.groupSizes())
	}
	return w, stray, replies
}

// TestForeignSuiteMessagesAreDropped: a daemon answers only its own
// suite. One datagram of every type the other suite speaks, sent to a
// formed group, must leave every view, version and published segment
// where it was and draw no reply.
func TestForeignSuiteMessagesAreDropped(t *testing.T) {
	const target, far = cnet.NodeID(0), uint64(1) << 20
	ringOnly := []cnet.Message{
		&membership.MHeartbeat{From: 9, Ver: far},
		membership.MPrepare{From: 9, Ver: far, Members: []cnet.NodeID{target, 9}, Subject: 9, Add: true},
		membership.MAck{From: 9, Ver: far},
		membership.MCommit{From: 9, Ver: far, Members: []cnet.NodeID{target, 9}},
		membership.MJoinReq{From: 9, Size: 1, MinID: 9, Members: []cnet.NodeID{9}},
		membership.MJoinOffer{From: 9, Ver: far, Members: []cnet.NodeID{5, 6, 7, 8, 9}},
		membership.MJoinAsk{From: 9},
	}
	gossipOnly := []cnet.Message{
		&membership.MGossip{From: 9, Nodes: []cnet.NodeID{0, 1, 2, 3}, Counts: []uint64{far, far, far, far}},
	}
	for _, tc := range []struct {
		suite   string
		gossip  bool
		foreign []cnet.Message
	}{
		{"ring", false, gossipOnly},
		{"gossip", true, ringOnly},
	} {
		for _, msg := range tc.foreign {
			t.Run(fmt.Sprintf("%s/%T", tc.suite, msg), func(t *testing.T) {
				w, stray, replies := newSuiteWorld(t, tc.gossip)
				before := viewsOf(w)
				stray.Send(target, cnet.ClassIntra, membership.Port, msg, 64)
				w.sim.RunFor(5 * time.Second)
				if after := viewsOf(w); after != before {
					t.Errorf("views moved:\nbefore %s\nafter  %s", before, after)
				}
				if len(*replies) != 0 {
					t.Errorf("daemon answered a message of the other suite: %T", (*replies)[0])
				}
			})
		}
	}
}

// viewsOf renders every daemon's (version, view) and published segment.
func viewsOf(w *world) string {
	var b strings.Builder
	for i := range w.daemons {
		pv, pm := w.pubs[i].Snapshot()
		fmt.Fprintf(&b, "[%d: v%d %v pub v%d %v]", i, w.daemon(i).Version(), w.daemon(i).Members(), pv, pm)
	}
	return b.String()
}

// TestGossipWithoutPeersIsRefused: the epidemic suite draws its targets
// from Config.Peers, so without them the daemon would silently stay a
// singleton; NewDaemon says so instead. The ring ignores the field.
func TestGossipWithoutPeersIsRefused(t *testing.T) {
	s := sim.New(1)
	log := &metrics.Log{}
	m := machine.New(s, simnet.New(s, simnet.DefaultConfig(), log), 0, nil, log)
	var refusal any
	m.AddProc("membd", func(env *machine.Env) {
		defer func() { refusal = recover() }()
		membership.NewDaemon(membership.Config{Gossip: true}, env, &membership.Published{})
	})
	if msg, _ := refusal.(string); !strings.Contains(msg, "Config.Peers") {
		t.Fatalf("NewDaemon(Gossip, no Peers) = %v, want a refusal naming Config.Peers", refusal)
	}
	m.AddProc("ring", func(env *machine.Env) {
		membership.NewDaemon(membership.Config{}, env, &membership.Published{})
	})
}
