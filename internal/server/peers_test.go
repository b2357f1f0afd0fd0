package server

import (
	"math/rand"
	"slices"
	"testing"

	"press/internal/cnet"
	"press/internal/qmon"
	"press/internal/snapio"
)

// stubConn is a send stream whose window is open or full.
type stubConn struct {
	open bool
	sent int
}

func (c *stubConn) Peer() cnet.NodeID { return 1 }

func (c *stubConn) TrySend(cnet.Message, int) bool {
	if c.open {
		c.sent++
	}
	return c.open
}

func (c *stubConn) Close() {}

// dialEnv is a process environment that only records dials.
type dialEnv struct {
	cnet.Env
	dials []cnet.NodeID
}

func (e *dialEnv) DialFor(to cnet.NodeID, _ cnet.Class, _ string, _ cnet.DialOwner) {
	e.dials = append(e.dials, to)
}

// recordingMonitor records the queue lengths the server reports.
type recordingMonitor struct{ seen [][2]int }

func (m *recordingMonitor) Observe(_ cnet.NodeID, total, requests int) {
	m.seen = append(m.seen, [2]int{total, requests})
}
func (m *recordingMonitor) ShouldReroute(cnet.NodeID) bool { return false }
func (m *recordingMonitor) ClearFailed(cnet.NodeID)        {}
func (m *recordingMonitor) Forget(cnet.NodeID)             {}
func (m *recordingMonitor) SnapState(*snapio.Ctx)          {}

// senderTo builds a server with plumbing towards node 1 over conn (none
// when conn is nil).
func senderTo(conn *stubConn, qm queueMonitor) (*Server, *dialEnv) {
	env := &dialEnv{}
	s := &Server{cfg: Config{Self: 0}, env: env, qm: qm, peers: make([]*peer, 2)}
	if conn != nil {
		s.peer(1).conn = conn
	}
	return s, env
}

// A message that finds nothing waiting on an open stream is sent at once,
// without a queue; queue monitoring still sees the one-message queue it
// saw when every message went through the queue: (1, r) and then (0, 0)
// when the send goes through, (1, r) twice when the window is full, and
// (1, r) and then a dial when there is no stream.
func TestEnqueueObservesAsQueued(t *testing.T) {
	for _, tc := range []struct {
		name    string
		conn    *stubConn
		seen    [][2]int
		waiting int
		dials   int
	}{
		{"open-window", &stubConn{open: true}, [][2]int{{1, 1}, {0, 0}}, 0, 0},
		{"window-full", &stubConn{}, [][2]int{{1, 1}, {1, 1}}, 1, 0},
		{"no-stream", nil, [][2]int{{1, 1}}, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			qm := &recordingMonitor{}
			s, env := senderTo(tc.conn, qm)
			s.enqueue(1, outMsg{m: &FwdMsg{}, size: sizeFwd, isReq: true, reqID: 7})
			if !slices.Equal(qm.seen, tc.seen) {
				t.Errorf("qmon saw %v, want %v", qm.seen, tc.seen)
			}
			if got := s.SendQueueLen(1); got != tc.waiting {
				t.Errorf("%d messages wait, want %d", got, tc.waiting)
			}
			if len(env.dials) != tc.dials {
				t.Errorf("%d dials, want %d", len(env.dials), tc.dials)
			}
			if p := s.peerAt(1); tc.waiting == 0 && p.q != nil {
				t.Error("a send that went through allocated a send queue")
			}
		})
	}
}

// A message sent straight onto an open stream, queue monitoring on,
// allocates nothing.
func TestDirectSendAllocatesNothing(t *testing.T) {
	conn := &stubConn{open: true}
	s, _ := senderTo(conn, qmon.New(qmon.DefaultConfig(), qmon.Callbacks{}, rand.New(rand.NewSource(1))))
	m := &FwdMsg{}
	if n := testing.AllocsPerRun(100, func() {
		s.enqueue(1, outMsg{m: m, size: sizeFwd, isReq: true, reqID: 7})
	}); n != 0 {
		t.Errorf("a direct send allocates %.1f objects, want 0", n)
	}
	if conn.sent == 0 || s.peerAt(1).q != nil {
		t.Errorf("%d sends went through and the queue is %v; want every send direct", conn.sent, s.peerAt(1).q)
	}
}
