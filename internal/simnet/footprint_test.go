package simnet

import (
	"reflect"
	"testing"
	"unsafe"

	"press/internal/cnet"
	"press/internal/sim"
)

// poolLen reads how many spare records a cnet.MsgPool holds (its free
// list is its only field).
func poolLen(pool any) int { return reflect.ValueOf(pool).Elem().Field(0).Len() }

// A storm — far more dials, stream messages, datagrams, multicasts and
// closed pairs in flight at one instant than any free list may keep —
// delivers everything, leaves each list holding at most its bound, and a
// second identical storm (now partly re-minting its records) behaves the
// same.
func TestFreeListsForgetAStorm(t *testing.T) {
	const storm = 500
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.BatchDelivery = true
	n := New(s, cfg, nil)
	a, b, c := n.AddIface(0), n.AddIface(1), n.AddIface(2)
	for _, i := range []*Iface{a, b, c} {
		i.JoinGroup("g")
	}
	var dgrams, mcasts, echoed, closed int
	b.BindDatagram("d", func(cnet.NodeID, cnet.Message) { dgrams++ })
	b.BindDatagram("m", func(cnet.NodeID, cnet.Message) { mcasts++ })
	c.BindDatagram("m", func(cnet.NodeID, cnet.Message) { mcasts++ })
	b.Listen("s", func(cnet.Conn) cnet.StreamHandlers {
		return cnet.StreamHandlers{
			OnMessage: func(c cnet.Conn, m cnet.Message) { c.TrySend(m, 10) },
			OnClose:   func(cnet.Conn, error) { closed++ },
		}
	})
	client := cnet.StreamHandlers{OnMessage: func(c cnet.Conn, m cnet.Message) {
		echoed++
		c.Close()
	}}
	run := func() [4]int {
		dgrams, mcasts, echoed, closed = 0, 0, 0, 0
		for i := 0; i < storm; i++ {
			a.Send(1, cnet.ClassIntra, "d", "x", 10)
			a.Multicast("g", "m", "y", 10)
			a.Dial(1, cnet.ClassIntra, "s", client, func(c cnet.Conn, err error) {
				if err != nil {
					t.Fatalf("dial: %v", err)
				}
				c.TrySend("ping", 10)
			})
		}
		s.Run()
		return [4]int{dgrams, mcasts, echoed, closed}
	}

	want := [4]int{storm, 2 * storm, storm, storm}
	first := run()
	if first != want {
		t.Fatalf("first storm delivered %v, want %v", first, want)
	}
	pools := []struct {
		name string
		pool any
	}{
		{"dgramFree", &n.dgramFree},
		{"streamFree", &n.streamFree},
		{"dialFree", &n.dialFree},
		{"batchFree", &n.batchFree},
		{"pairFree", &n.pairFree},
	}
	for _, p := range pools {
		if got := poolLen(p.pool); got == 0 || got > 64 {
			t.Errorf("%s holds %d records after a %d-wide storm, want 1..64", p.name, got, storm)
		}
	}
	if second := run(); second != want {
		t.Errorf("second storm delivered %v, want %v", second, want)
	}
	for _, p := range pools {
		if got := poolLen(p.pool); got > 64 {
			t.Errorf("%s holds %d records after the second storm", p.name, got)
		}
	}
	if len(a.conns)+len(b.conns) != 0 {
		t.Errorf("%d conn ends still attached", len(a.conns)+len(b.conns))
	}
}

// The live-connection mesh is the simulator's largest resident structure
// (65,280 pairs at N=256), so a pair's size class is pinned: two 96-byte
// ends in the 192-byte class. An end is its owner's whole record of it —
// router, handlers and word — so nothing else is kept per end, and its
// receive buffer, which only a stalled reader fills, is out of line.
func TestConnPairSize(t *testing.T) {
	if got := unsafe.Sizeof(connPair{}); got > 192 {
		t.Errorf("connPair is %d bytes, want at most 192 (the next size class is 208)", got)
	}
}

// A dial is one record from DialFor until its owner has the verdict, in
// flight and, for a process's dial, waiting in its mailbox: a formation
// storm at N=256 holds 65,280 of them at once. The error is a code, the
// class a byte and the port an index, so the record fits 64 bytes.
func TestDialRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Dial{}); got > 64 {
		t.Errorf("Dial is %d bytes, want at most 64", got)
	}
}
