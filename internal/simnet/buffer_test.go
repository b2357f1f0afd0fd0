package simnet

import (
	"bytes"
	"testing"

	"press/internal/cnet"
	"press/internal/sim"
	"press/internal/snapio"
)

// seqMsg is a numbered stream message with a snapshot walk, so a capture
// can carry it in a receive buffer.
type seqMsg struct{ n int }

func newSnapCtx(s *sim.Sim) *snapio.Ctx {
	msgs := snapio.NewMsgCodec()
	msgs.Register("test.seq", (*seqMsg)(nil), func(x *snapio.Ctx, m any) any {
		r := m.(*seqMsg)
		if r == nil {
			r = new(seqMsg)
		}
		snapio.Int(x, &r.n)
		return r
	})
	return &snapio.Ctx{World: &snapio.World{Sim: s, Conns: snapio.NewRefTable(BlankConn), Owners: snapio.NewRefTable(nil), Msgs: msgs}}
}

// pausedPair connects iface 0 to iface 1 and returns both ends, the
// accepting one paused, with every message it reads appended to got.
func pausedPair(t *testing.T, s *sim.Sim, n *Network, got *[]int) (client cnet.Conn, server *End) {
	t.Helper()
	a, b := n.AddIface(0), n.AddIface(1)
	b.Listen("p", func(c cnet.Conn) cnet.StreamHandlers {
		server = c.(*End)
		server.SetPaused(true)
		return cnet.StreamHandlers{OnMessage: func(_ cnet.Conn, m cnet.Message) { *got = append(*got, m.(*seqMsg).n) }}
	})
	client, err := dial(t, s, a, 1, "p", cnet.StreamHandlers{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	return client, server
}

// An end whose owner stopped reading buffers what arrives, makes its
// buffer the first time it does, and on resume delivers every message
// in arrival order; the emptied buffer stays on the end.
func TestStalledEndDrainsInOrder(t *testing.T) {
	s, n := newNet(t)
	var got []int
	client, server := pausedPair(t, s, n, &got)
	if server.buf != nil {
		t.Fatal("an end that never buffered holds a buffer")
	}
	const sent = recvWindow - 1
	for i := range sent {
		client.TrySend(&seqMsg{i}, 10)
	}
	s.Run()
	if len(got) != 0 || server.Buffered() != sent {
		t.Fatalf("paused end read %v and buffers %d, want nothing read and %d buffered", got, server.Buffered(), sent)
	}
	buf := server.buf
	server.SetPaused(false)
	s.Run()
	if len(got) != sent {
		t.Fatalf("resumed end read %v, want 0..%d", got, sent-1)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("resumed end read %v, want 0..%d in order", got, sent-1)
		}
	}
	if server.Buffered() != 0 || server.buf != buf {
		t.Errorf("after the drain: %d buffered, buffer kept %v", server.Buffered(), server.buf == buf)
	}
}

// recycler is a dial owner record, so a connection's life boxes no
// closures.
type recycler struct {
	conn cnet.Conn
	msgs []cnet.Message
}

func (r *recycler) DialHandlers() cnet.StreamHandlers { return cnet.StreamHandlers{} }
func (r *recycler) DialResult(c cnet.Conn, err error) {
	r.conn = c
	for _, m := range r.msgs {
		c.TrySend(m, 10)
	}
}

// A pair's receive buffers go back to the free list with it: a
// connection whose reader stalls, buffers, drains and closes allocates
// nothing once a pair has been through it, and the next connection on
// the recycled pair buffers into the same storage.
func TestRecycledPairReusesBuffer(t *testing.T) {
	s, n := newNet(t)
	a, b := n.AddIface(0), n.AddIface(1)
	var server *End
	read := 0
	h := cnet.StreamHandlers{OnMessage: func(cnet.Conn, cnet.Message) { read++ }}
	b.Listen("p", func(c cnet.Conn) cnet.StreamHandlers {
		server = c.(*End)
		server.SetPaused(true)
		return h
	})
	owner := &recycler{msgs: []cnet.Message{&seqMsg{0}, &seqMsg{1}, &seqMsg{2}}}
	bufs := make([]*[]cnet.Message, 0, 102)
	life := func() {
		a.DialFor(1, cnet.ClassIntra, "p", owner)
		s.Run()
		bufs = append(bufs, server.buf)
		server.SetPaused(false)
		owner.conn.Close()
		s.Run()
	}
	life()
	if read != 3 || server.buf == nil {
		t.Fatalf("first life read %d messages, buffer %v", read, server.buf)
	}
	if avg := testing.AllocsPerRun(100, life); avg != 0 {
		t.Errorf("a stalled connection's life on a recycled pair allocates %v objects", avg)
	}
	for i, buf := range bufs {
		if buf != bufs[0] {
			t.Fatalf("life %d buffered into a new buffer", i)
		}
	}
	if read != 3*102 || len(a.conns)+len(b.conns) != 0 {
		t.Errorf("read %d messages, %d ends still attached", read, len(a.conns)+len(b.conns))
	}
}

// A capture taken while an end holds unread messages carries them; the
// restored world holds them at the same end, captures again to the same
// bytes, and delivers them in order once the end resumes.
func TestBufferedEndSurvivesCapture(t *testing.T) {
	s, n := newNet(t)
	var got []int
	client, server := pausedPair(t, s, n, &got)
	for i := range 3 {
		client.TrySend(&seqMsg{i}, 10)
	}
	s.Run()

	capture := func(s *sim.Sim, n *Network, end *End) ([]byte, uint64) {
		x := newSnapCtx(s)
		x.Enc = new(snapio.Encoder)
		x.CapturePending()
		n.SnapCore(x)
		id := x.Conns.Ref(end)
		n.SnapPending(x)
		n.SnapConns(x)
		return x.Enc.Bytes(), id
	}
	first, id := capture(s, n, server)

	s2, n2 := newNet(t)
	n2.AddIface(0)
	n2.AddIface(1)
	x := newSnapCtx(s2)
	x.Dec = snapio.NewDecoder(first)
	n2.SnapCore(x)
	n2.SnapPending(x)
	n2.SnapConns(x)
	restored := x.Conns.Obj(id).(*End)
	if restored.Buffered() != 3 {
		t.Fatalf("restored end buffers %d messages, want 3", restored.Buffered())
	}
	if again, _ := capture(s2, n2, restored); !bytes.Equal(again, first) {
		t.Fatalf("recapture of the restored world differs: %d bytes, want %d", len(again), len(first))
	}
	var got2 []int
	restored.RestoreHandlers(Direct, cnet.StreamHandlers{OnMessage: func(_ cnet.Conn, m cnet.Message) { got2 = append(got2, m.(*seqMsg).n) }})
	restored.SetPaused(false)
	s2.Run()
	if len(got2) != 3 || got2[0] != 0 || got2[1] != 1 || got2[2] != 2 {
		t.Errorf("restored end read %v, want [0 1 2]", got2)
	}
}
