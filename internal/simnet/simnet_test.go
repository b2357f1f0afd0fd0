package simnet

import (
	"errors"
	"testing"
	"time"

	"press/internal/cnet"
	"press/internal/sim"
)

func newNet(t *testing.T) (*sim.Sim, *Network) {
	t.Helper()
	s := sim.New(1)
	return s, New(s, DefaultConfig(), nil)
}

func TestDatagramDelivery(t *testing.T) {
	s, n := newNet(t)
	a := n.AddIface(0)
	b := n.AddIface(1)
	var got cnet.Message
	var from cnet.NodeID = cnet.None
	b.BindDatagram("hb", func(f cnet.NodeID, m cnet.Message) { from, got = f, m })
	a.Send(1, cnet.ClassIntra, "hb", "ping", 32)
	s.Run()
	if got != "ping" || from != 0 {
		t.Fatalf("got %v from %v", got, from)
	}
}

func TestDatagramDroppedNoHandler(t *testing.T) {
	s, n := newNet(t)
	a := n.AddIface(0)
	n.AddIface(1)
	a.Send(1, cnet.ClassIntra, "nope", "x", 0)
	s.Run() // must not panic
}

func TestDatagramDroppedWhenLinkDown(t *testing.T) {
	s, n := newNet(t)
	a := n.AddIface(0)
	b := n.AddIface(1)
	got := 0
	b.BindDatagram("hb", func(cnet.NodeID, cnet.Message) { got++ })
	b.SetLink(false)
	a.Send(1, cnet.ClassIntra, "hb", "x", 0)
	s.Run()
	if got != 0 {
		t.Fatal("datagram crossed a down link")
	}
}

func TestClientClassIgnoresIntraFaults(t *testing.T) {
	s, n := newNet(t)
	a := n.AddIface(0)
	b := n.AddIface(1)
	got := 0
	b.BindDatagram("http", func(cnet.NodeID, cnet.Message) { got++ })
	b.SetLink(false)
	n.SetSwitch(false)
	a.Send(1, cnet.ClassClient, "http", "x", 0)
	s.Run()
	if got != 1 {
		t.Fatal("client traffic blocked by intra-cluster faults")
	}
}

func TestSwitchDownBlocksIntra(t *testing.T) {
	s, n := newNet(t)
	a := n.AddIface(0)
	b := n.AddIface(1)
	got := 0
	b.BindDatagram("hb", func(cnet.NodeID, cnet.Message) { got++ })
	n.SetSwitch(false)
	a.Send(1, cnet.ClassIntra, "hb", "x", 0)
	s.Run()
	if got != 0 {
		t.Fatal("intra datagram crossed a down switch")
	}
}

func TestMulticastReachesGroupExceptSender(t *testing.T) {
	s, n := newNet(t)
	ifaces := make([]*Iface, 4)
	got := make([]int, 4)
	for i := range ifaces {
		ifaces[i] = n.AddIface(cnet.NodeID(i))
		ifaces[i].JoinGroup("join")
		i := i
		ifaces[i].BindDatagram("memb", func(cnet.NodeID, cnet.Message) { got[i]++ })
	}
	ifaces[2].Multicast("join", "memb", "hello", 0)
	s.Run()
	want := []int{1, 1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("multicast counts %v, want %v", got, want)
		}
	}
}

func TestJoinGroupIdempotent(t *testing.T) {
	s, n := newNet(t)
	a := n.AddIface(0)
	b := n.AddIface(1)
	b.JoinGroup("g")
	b.JoinGroup("g")
	got := 0
	b.BindDatagram("p", func(cnet.NodeID, cnet.Message) { got++ })
	a.Multicast("g", "p", "x", 0)
	s.Run()
	if got != 1 {
		t.Fatalf("duplicate group membership: got %d deliveries", got)
	}
}

func dial(t *testing.T, s *sim.Sim, from *Iface, to cnet.NodeID, port string, h cnet.StreamHandlers) (cnet.Conn, error) {
	t.Helper()
	var conn cnet.Conn
	var derr error
	done := false
	from.Dial(to, cnet.ClassIntra, port, h, func(c cnet.Conn, err error) {
		conn, derr, done = c, err, true
	})
	s.Run()
	if !done {
		t.Fatal("dial callback never ran")
	}
	return conn, derr
}

func TestStreamConnectAndExchange(t *testing.T) {
	s, n := newNet(t)
	a := n.AddIface(0)
	b := n.AddIface(1)
	var serverGot []cnet.Message
	b.Listen("press", func(c cnet.Conn) cnet.StreamHandlers {
		return cnet.StreamHandlers{
			OnMessage: func(c cnet.Conn, m cnet.Message) {
				serverGot = append(serverGot, m)
				c.TrySend("reply:"+m.(string), 100)
			},
		}
	})
	var clientGot []cnet.Message
	conn, err := dial(t, s, a, 1, "press", cnet.StreamHandlers{
		OnMessage: func(c cnet.Conn, m cnet.Message) { clientGot = append(clientGot, m) },
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if conn.Peer() != 1 {
		t.Fatalf("Peer = %v", conn.Peer())
	}
	conn.TrySend("a", 10)
	conn.TrySend("b", 10)
	s.Run()
	if len(serverGot) != 2 || serverGot[0] != "a" || serverGot[1] != "b" {
		t.Fatalf("server got %v", serverGot)
	}
	if len(clientGot) != 2 || clientGot[0] != "reply:a" {
		t.Fatalf("client got %v", clientGot)
	}
}

func TestDialRefusedWhenNoListener(t *testing.T) {
	s, n := newNet(t)
	a := n.AddIface(0)
	n.AddIface(1)
	start := s.Now()
	_, err := dial(t, s, a, 1, "press", cnet.StreamHandlers{})
	if !errors.Is(err, cnet.ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused", err)
	}
	if s.Now()-start > 100*time.Millisecond {
		t.Fatalf("refusal took %v, should be fast", s.Now()-start)
	}
}

func TestDialTimeoutWhenNodeDown(t *testing.T) {
	s, n := newNet(t)
	a := n.AddIface(0)
	b := n.AddIface(1)
	b.Listen("press", func(cnet.Conn) cnet.StreamHandlers { return cnet.StreamHandlers{} })
	b.SetState(NodeDown)
	start := s.Now()
	_, err := dial(t, s, a, 1, "press", cnet.StreamHandlers{})
	if !errors.Is(err, cnet.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if got := s.Now() - start; got < synTimeout {
		t.Fatalf("timeout after %v, want >= %v", got, synTimeout)
	}
}

func TestDialTimeoutWhenFrozen(t *testing.T) {
	s, n := newNet(t)
	a := n.AddIface(0)
	b := n.AddIface(1)
	b.Listen("press", func(cnet.Conn) cnet.StreamHandlers { return cnet.StreamHandlers{} })
	b.SetState(NodeFrozen)
	_, err := dial(t, s, a, 1, "press", cnet.StreamHandlers{})
	if !errors.Is(err, cnet.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestDialSucceedsToHungProcessConnsPause(t *testing.T) {
	// The FME probe scenario: listener registered, but its conns are
	// paused (process hung). Handshake must succeed; messages must NOT be
	// delivered while paused; they flow after resume.
	s, n := newNet(t)
	a := n.AddIface(0)
	b := n.AddIface(1)
	var serverConn cnet.Conn
	got := 0
	b.Listen("http", func(c cnet.Conn) cnet.StreamHandlers {
		serverConn = c
		c.(*End).SetPaused(true) // process is hung at accept time
		return cnet.StreamHandlers{OnMessage: func(cnet.Conn, cnet.Message) { got++ }}
	})
	conn, err := dial(t, s, a, 1, "http", cnet.StreamHandlers{})
	if err != nil {
		t.Fatalf("dial to hung process failed: %v", err)
	}
	conn.TrySend("GET", 100)
	s.Run()
	if got != 0 {
		t.Fatal("hung process consumed a message")
	}
	serverConn.(*End).SetPaused(false)
	s.Run()
	if got != 1 {
		t.Fatal("message lost after resume")
	}
}

func TestFlowControlWindowFillsAndWritable(t *testing.T) {
	s, n := newNet(t)
	a := n.AddIface(0)
	b := n.AddIface(1)
	var serverConn *End
	b.Listen("press", func(c cnet.Conn) cnet.StreamHandlers {
		serverConn = c.(*End)
		serverConn.SetPaused(true)
		return cnet.StreamHandlers{OnMessage: func(cnet.Conn, cnet.Message) {}}
	})
	writable := 0
	conn, err := dial(t, s, a, 1, "press", cnet.StreamHandlers{
		OnWritable: func(cnet.Conn) { writable++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	window := recvWindow
	sent := 0
	for i := 0; i < window*2; i++ {
		if conn.TrySend(i, 10) {
			sent++
		} else {
			break
		}
		s.Run() // let in-transit messages land so the window fills deterministically
	}
	if sent != window {
		t.Fatalf("sent %d before stall, want window %d", sent, window)
	}
	if serverConn.Buffered() != window {
		t.Fatalf("buffered %d, want %d", serverConn.Buffered(), window)
	}
	serverConn.SetPaused(false)
	s.Run()
	if writable != 1 {
		t.Fatalf("OnWritable fired %d times, want 1", writable)
	}
}

func TestOrderlyCloseDeliversErrClosed(t *testing.T) {
	s, n := newNet(t)
	a := n.AddIface(0)
	b := n.AddIface(1)
	var serverErr error
	b.Listen("press", func(c cnet.Conn) cnet.StreamHandlers {
		return cnet.StreamHandlers{OnClose: func(c cnet.Conn, err error) { serverErr = err }}
	})
	conn, err := dial(t, s, a, 1, "press", cnet.StreamHandlers{})
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	s.Run()
	if !errors.Is(serverErr, cnet.ErrClosed) {
		t.Fatalf("server close err = %v", serverErr)
	}
}

func TestAbortDeliversErrReset(t *testing.T) {
	s, n := newNet(t)
	a := n.AddIface(0)
	b := n.AddIface(1)
	var clientErr error
	var serverConn *End
	b.Listen("press", func(c cnet.Conn) cnet.StreamHandlers {
		serverConn = c.(*End)
		return cnet.StreamHandlers{}
	})
	_, err := dial(t, s, a, 1, "press", cnet.StreamHandlers{
		OnClose: func(c cnet.Conn, err error) { clientErr = err },
	})
	if err != nil {
		t.Fatal(err)
	}
	serverConn.Abort()
	s.Run()
	if !errors.Is(clientErr, cnet.ErrReset) {
		t.Fatalf("client err = %v, want ErrReset", clientErr)
	}
}

func TestMachineCrashSilentThenRSTOnReboot(t *testing.T) {
	s, n := newNet(t)
	a := n.AddIface(0)
	b := n.AddIface(1)
	var clientErr error
	closes := 0
	b.Listen("press", func(c cnet.Conn) cnet.StreamHandlers { return cnet.StreamHandlers{} })
	conn, err := dial(t, s, a, 1, "press", cnet.StreamHandlers{
		OnClose: func(c cnet.Conn, err error) { clientErr = err; closes++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	b.SetState(NodeDown)
	if !conn.TrySend("lost", 10) {
		t.Fatal("send into crashed machine should silently succeed")
	}
	s.RunFor(10 * time.Second)
	if closes != 0 {
		t.Fatal("peer learned of crash before reboot")
	}
	b.SetState(NodeUp)
	s.Run()
	if closes != 1 || !errors.Is(clientErr, cnet.ErrReset) {
		t.Fatalf("after reboot closes=%d err=%v, want 1 RST", closes, clientErr)
	}
}

func TestFreezeBuffersThenDeliversOnThaw(t *testing.T) {
	s, n := newNet(t)
	a := n.AddIface(0)
	b := n.AddIface(1)
	var got []cnet.Message
	b.Listen("press", func(c cnet.Conn) cnet.StreamHandlers {
		return cnet.StreamHandlers{OnMessage: func(c cnet.Conn, m cnet.Message) { got = append(got, m) }}
	})
	conn, err := dial(t, s, a, 1, "press", cnet.StreamHandlers{})
	if err != nil {
		t.Fatal(err)
	}
	b.SetState(NodeFrozen)
	conn.TrySend("during-freeze", 10)
	s.RunFor(time.Second)
	if len(got) != 0 {
		t.Fatal("frozen machine consumed a message")
	}
	b.SetState(NodeUp)
	s.Run()
	if len(got) != 1 || got[0] != "during-freeze" {
		t.Fatalf("after thaw got %v", got)
	}
}

func TestInFlightDroppedWhenPathBreaks(t *testing.T) {
	s, n := newNet(t)
	a := n.AddIface(0)
	b := n.AddIface(1)
	got := 0
	b.Listen("press", func(c cnet.Conn) cnet.StreamHandlers {
		return cnet.StreamHandlers{OnMessage: func(cnet.Conn, cnet.Message) { got++ }}
	})
	conn, err := dial(t, s, a, 1, "press", cnet.StreamHandlers{})
	if err != nil {
		t.Fatal(err)
	}
	conn.TrySend("x", 10)
	b.SetLink(false) // breaks before the message arrives
	s.Run()
	if got != 0 {
		t.Fatal("message crossed a broken path")
	}
}

func TestSerializationDelayAccumulates(t *testing.T) {
	s, n := newNet(t)
	a := n.AddIface(0)
	b := n.AddIface(1)
	var arrivals []time.Duration
	b.BindDatagram("bulk", func(cnet.NodeID, cnet.Message) { arrivals = append(arrivals, s.Now()) })
	// Two 12.5 MB datagrams over 125 MB/s: 100 ms serialization each.
	a.Send(1, cnet.ClassIntra, "bulk", "x", 12500000)
	a.Send(1, cnet.ClassIntra, "bulk", "y", 12500000)
	s.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals %v", arrivals)
	}
	gap := arrivals[1] - arrivals[0]
	if gap < 90*time.Millisecond || gap > 110*time.Millisecond {
		t.Fatalf("serialization gap %v, want ~100ms", gap)
	}
}

func TestDuplicateIfacePanics(t *testing.T) {
	_, n := newNet(t)
	n.AddIface(0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate iface")
		}
	}()
	n.AddIface(0)
}
