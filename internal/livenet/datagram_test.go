package livenet

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"press/internal/cnet"
	"press/internal/frontend"
	"press/internal/membership"
	"press/internal/server"
)

// datagramSamples has one value of every type in datagramMessages, each
// with every field set, slices included.
var datagramSamples = []cnet.Message{
	&server.HBMsg{From: 1, Load: 6},
	&server.AnnounceMsg{From: 1, Doc: 8, Cached: true, Load: 2},
	server.ExcludeMsg{From: 0, Dead: 2},
	server.JoinReqMsg{From: 1},
	server.JoinRespMsg{From: 0, View: []cnet.NodeID{0, 1}},
	&membership.MHeartbeat{From: 2, Ver: 9},
	&membership.MGossip{From: 1, Nodes: []cnet.NodeID{0, 1, 2}, Counts: []uint64{4, 5, 1 << 40}},
	membership.MJoinReq{From: 2, Size: 1, MinID: 2, Members: []cnet.NodeID{2}},
	membership.MJoinOffer{From: 0, Ver: 3, Members: []cnet.NodeID{0, 1}},
	membership.MJoinAsk{From: 2},
	membership.MPrepare{From: 0, Ver: 4, Members: []cnet.NodeID{0, 1, 2}, Subject: 2, Add: true},
	membership.MAck{From: 1, Ver: 4},
	membership.MCommit{From: 0, Ver: 4, Members: []cnet.NodeID{0, 1, 2}},
	membership.MNodeDown{From: 1, Node: 2},
	frontend.PingMsg{From: 90, Seq: 11},
	frontend.PongMsg{From: 1, Seq: 11},
}

// TestEveryDatagramMessageIsDelivered pushes one value of every type the
// datagram ports carry through Send to a bound handler. A type missing
// from the registration list is not an error anyone sees at the call site
// — Send has no result — so the list is held to the table here.
func TestEveryDatagramMessageIsDelivered(t *testing.T) {
	sampled := map[reflect.Type]bool{}
	for _, m := range datagramSamples {
		sampled[reflect.TypeOf(m)] = true
	}
	for _, m := range datagramMessages {
		if !sampled[reflect.TypeOf(m)] {
			t.Errorf("%T is registered for datagrams and has no sample in datagramSamples", m)
		}
	}
	if len(datagramSamples) != len(datagramMessages) {
		t.Errorf("%d samples for %d registered types", len(datagramSamples), len(datagramMessages))
	}

	w := NewWorld(1)
	type arrival struct {
		from cnet.NodeID
		m    cnet.Message
	}
	arrived := make(chan arrival, 1)
	up := make(chan cnet.Env, 1)
	rcv := w.AddNode(1).Spawn("recv", func(env cnet.Env) {
		env.BindDatagram("p", func(from cnet.NodeID, m cnet.Message) { arrived <- arrival{from, m} })
		up <- env
	})
	<-up
	snd := w.AddNode(0).Spawn("send", func(env cnet.Env) { up <- env })
	sender := <-up
	defer rcv.Kill()
	defer snd.Kill()

	for _, m := range datagramSamples {
		sender.Send(1, cnet.ClassIntra, "p", m, 64)
		select {
		case got := <-arrived:
			if got.from != 0 || !reflect.DeepEqual(got.m, m) {
				t.Errorf("%T arrived from node %d as %#v, want %#v from node 0", m, got.from, got.m, m)
			}
		case <-time.After(2 * time.Second):
			// Loopback UDP to a bound socket does not lose packets.
			t.Errorf("%T never arrived", m)
		}
	}
	if e, ok := w.Log().Query().Kind(KSendDrop).First(); ok {
		t.Errorf("the world log reports %v", e)
	}
}

// TestUnencodableDatagramIsLoggedOncePerType: the failure that hid the
// missing gossip registration now says what it is, once.
func TestUnencodableDatagramIsLoggedOncePerType(t *testing.T) {
	type stranger struct{ X int }
	type other struct{ Y string }
	w := NewWorld(1)
	up := make(chan cnet.Env, 1)
	rcv := w.AddNode(1).Spawn("recv", func(env cnet.Env) {
		env.BindDatagram("p", func(cnet.NodeID, cnet.Message) { t.Error("an unencodable datagram was delivered") })
		up <- env
	})
	<-up
	snd := w.AddNode(0).Spawn("send", func(env cnet.Env) { up <- env })
	sender := <-up
	defer rcv.Kill()
	defer snd.Kill()

	for i := 0; i < 3; i++ {
		sender.Send(1, cnet.ClassIntra, "p", stranger{i}, 8)
	}
	sender.Send(1, cnet.ClassIntra, "p", other{"x"}, 8)
	drops := w.Log().Query().Source(srcLivenet).Kind(KSendDrop).Events()
	if len(drops) != 2 || !strings.Contains(drops[0].Detail, "stranger") || !strings.Contains(drops[1].Detail, "other") || drops[0].Node != 0 {
		t.Fatalf("world log holds %v, want one drop event for each of the two types, from node 0", drops)
	}
}

// TestGossipMembershipFormsLive runs the scalable suite's membership on
// real datagrams: three daemons in gossip mode must each publish the full
// view. With the digest type unregistered every round's sends vanished
// and no daemon ever saw another.
func TestGossipMembershipFormsLive(t *testing.T) {
	w := NewWorld(1)
	ids := []cnet.NodeID{0, 1, 2}
	pubs := make([]*membership.Published, len(ids))
	for i, id := range ids {
		pub := &membership.Published{}
		pubs[i] = pub
		p := w.AddNode(id).Spawn("membd", func(env cnet.Env) {
			membership.NewDaemon(membership.Config{
				Self: id, HBPeriod: 100 * time.Millisecond, HBMiss: 3, Gossip: true, Peers: ids,
			}, env, pub)
		})
		defer p.Kill()
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		full := 0
		for _, pub := range pubs {
			if _, members := pub.Snapshot(); len(members) == len(ids) {
				full++
			}
		}
		if full == len(ids) {
			return
		}
		if time.Now().After(deadline) {
			var views [][]cnet.NodeID
			for _, pub := range pubs {
				_, members := pub.Snapshot()
				views = append(views, members)
			}
			t.Fatalf("after 3 s the daemons publish %v, want all of %v from each; world log:\n%s", views, ids, w.Log().Dump())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
