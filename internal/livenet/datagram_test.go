package livenet

import (
	"bytes"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"press/internal/cnet"
	"press/internal/frontend"
	"press/internal/membership"
	"press/internal/server"
	"press/internal/snapio"
)

// dgramArrival is one call of a bound datagram handler.
type dgramArrival struct {
	from cnet.NodeID
	m    cnet.Message
}

// datagramOf is the packet that carries m from from: the sender, then the
// snapshot engine's bytes.
func datagramOf(from cnet.NodeID, m cnet.Message) []byte {
	return append(appendSender(nil, from), snapshotEncoding(m)...)
}

// bindArrivals spawns a process on node 1 whose port "p" reports every
// datagram it is handed, and returns the reports and the process.
func bindArrivals(w *World) (<-chan dgramArrival, *Proc) {
	arrived := make(chan dgramArrival, 1)
	up := make(chan struct{})
	p := w.AddNode(1).Spawn("recv", func(env cnet.Env) {
		env.BindDatagram("p", func(from cnet.NodeID, m cnet.Message) { arrived <- dgramArrival{from, m} })
		close(up)
	})
	<-up
	return arrived, p
}

// TestEveryDatagramMessageIsDelivered pushes one value of every message
// the codec registers through Send, to a bound handler and to a plain
// socket. Send has no result, so a message it cannot carry is not an error
// anyone sees at the call site: the table is held to the codec here.
func TestEveryDatagramMessageIsDelivered(t *testing.T) {
	w := NewWorld(1)
	arrived, rcv := bindArrivals(w)
	defer rcv.Kill()
	up := make(chan cnet.Env, 1)
	snd := w.AddNode(0).Spawn("send", func(env cnet.Env) { up <- env })
	sender := <-up
	defer snd.Kill()

	// Node 50's port is a socket the test reads packet by packet.
	raw, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	w.mu.Lock()
	w.udpAddrs[portKey{50, "p"}] = raw.LocalAddr().(*net.UDPAddr)
	w.mu.Unlock()
	pkt := make([]byte, 64<<10)

	for _, name := range wireCodec.Names() {
		s, ok := wireSamples[name]
		if !ok {
			t.Errorf("%s is registered with the codec and has no sample in wireSamples", name)
			continue
		}

		// Delivered whole, from the node that sent it, with no pool attached.
		sender.Send(1, cnet.ClassIntra, "p", s.outgoing(), 64)
		// Loopback UDP to a bound socket does not lose packets.
		got := recv(t, arrived, name+" to arrive")
		if got.from != 0 || !reflect.DeepEqual(got.m, s.want) {
			t.Errorf("%s arrived from node %d as %#v, want %#v from node 0", name, got.from, got.m, s.want)
		}
		if r, ok := got.m.(interface{ Release() }); ok {
			r.Release()
			if !reflect.DeepEqual(got.m, s.want) {
				t.Errorf("%s: Release on the received copy changed it to %#v: it has a home pool", name, got.m)
			}
		}

		// On the socket: the sender and the snapshot engine's bytes, nothing
		// else.
		sender.Send(50, cnet.ClassIntra, "p", s.outgoing(), 64)
		raw.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, _, err := raw.ReadFrom(pkt)
		if err != nil {
			t.Fatalf("%s: reading the raw packet: %v", name, err)
		}
		if want := datagramOf(0, s.want); !bytes.Equal(pkt[:n], want) {
			t.Errorf("%s: on the wire % x, want the sender and the snapshot encoding % x", name, pkt[:n], want)
		}
	}
	if e, ok := w.Log().Query().Kind(KSendDrop).First(); ok {
		t.Errorf("the world log reports %v", e)
	}
}

// hostileDatagram is one packet a stranger on the host writes to a bound
// port.
type hostileDatagram struct {
	name string
	pkt  []byte
}

func hostileDatagrams() []hostileDatagram {
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	from3 := appendSender(nil, 3)
	hb := snapshotEncoding(&server.HBMsg{From: 3, Load: 6})
	var unknown, nameless, greedy snapio.Encoder
	unknown.Str("memb.Nope")
	unknown.U64(1)
	nameless.Str("")
	// A digest from node 3 claiming 32k entries and carrying none.
	greedy.Str("memb.Gossip")
	greedy.I64(3)
	greedy.Int(1 << 15)
	return []hostileDatagram{
		{"nothing at all", nil},
		{"shorter than its sender", from3[:3]},
		{"a sender and no message", from3},
		{"a negative sender", cat([]byte{0xff, 0xff, 0xff, 0xff}, hb)},
		{"another protocol", []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")},
		{"a stream's preamble and frame", cat(appendPreamble(nil, 3), msgFrame(1, hb))},
		{"an unknown message name", cat(from3, unknown.Bytes())},
		{"an empty name", cat(from3, nameless.Bytes())},
		{"a message cut short", cat(from3, hb[:len(hb)-1])},
		{"bytes left over", cat(from3, hb, []byte{0})},
		{"a count larger than the packet", cat(from3, greedy.Bytes())},
	}
}

// TestHostileDatagramIsDropped is TestHostileStreamClosesTheConnection's
// twin. A datagram has no connection to close: one that is not the
// protocol is lost, the handler never hears of it, the log is not the
// stranger's to write in, and the next good datagram on the same socket
// is delivered.
func TestHostileDatagramIsDropped(t *testing.T) {
	w := NewWorld(1)
	arrived, rcv := bindArrivals(w)
	defer rcv.Kill()
	w.mu.Lock()
	addr := w.udpAddrs[portKey{1, "p"}]
	w.mu.Unlock()
	c, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i, h := range hostileDatagrams() {
		if _, err := c.Write(h.pkt); err != nil {
			t.Fatalf("%s: %v", h.name, err)
		}
		// One socket to one socket over loopback keeps order, so whatever
		// the hostile packet caused comes before the good one's arrival.
		good := frontend.PingMsg{From: 3, Seq: uint64(i)}
		if _, err := c.Write(datagramOf(3, good)); err != nil {
			t.Fatal(err)
		}
		if got := recv(t, arrived, "the datagram after "+h.name); got.from != 3 || got.m != cnet.Message(good) {
			t.Errorf("after %s the handler was given %#v from node %d, want %#v from node 3", h.name, got.m, got.from, good)
		}
	}
	if evs := w.Log().Query().Source(srcLivenet).Events(); len(evs) != 0 {
		t.Errorf("the world log holds %v", evs)
	}
}

// FuzzDatagram feeds the datagram read side arbitrary packets. Whatever
// arrives is refused or is a message that survives its own re-encoding,
// never a panic. The seed corpus is every registered message and every
// row of the hostile table, so plain go test runs them.
func FuzzDatagram(f *testing.F) {
	for _, name := range wireCodec.Names() {
		if s, ok := wireSamples[name]; ok {
			f.Add(datagramOf(3, s.want))
		}
	}
	for _, h := range hostileDatagrams() {
		f.Add(h.pkt)
	}
	f.Fuzz(func(t *testing.T, pkt []byte) {
		from, m, err := parseDatagram(pkt)
		if err != nil {
			if m != nil {
				t.Fatalf("parseDatagram returned both %#v and %v", m, err)
			}
			return
		}
		again, err := appendBody(appendSender(nil, from), m)
		if err != nil {
			t.Fatalf("a decoded %T does not encode: %v", m, err)
		}
		from2, m2, err := parseDatagram(again)
		if err != nil || from2 != from || !reflect.DeepEqual(m2, m) {
			t.Fatalf("%#v from node %d re-encoded and decoded as %#v from node %d, %v", m, from, m2, from2, err)
		}
	})
}

// TestHeartbeatDatagramAllocations holds what a heartbeat costs between
// Send and the handler, sockets aside, to what the codec's walk needs: the
// encoder and its buffer's growths, the decoder, the name and the record,
// 7 in all. The gob packet this replaced (a fresh encoder and decoder per
// packet, each compiling the type anew) measured 204 on the same message.
func TestHeartbeatDatagramAllocations(t *testing.T) {
	hb := &membership.MHeartbeat{From: 2, Ver: 9}
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(200, func() {
		pkt, err := appendBody(appendSender(buf[:0], 2), hb)
		if err != nil {
			t.Fatal(err)
		}
		if _, m, err := parseDatagram(pkt); err != nil || *m.(*membership.MHeartbeat) != *hb {
			t.Fatalf("decoded %#v, %v", m, err)
		}
	})
	t.Logf("%.0f allocations per heartbeat datagram, encode and decode", allocs)
	if allocs > 8 {
		t.Errorf("%.0f allocations per heartbeat datagram, want at most 8", allocs)
	}
}

// TestUnencodableDatagramIsLoggedOncePerType: the failure that hid the
// missing gossip registration says what it is, once.
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
