package server

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"press/internal/clock"
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

// dialEnv is a process environment that only records dials and the
// owners of the timers armed on it.
type dialEnv struct {
	cnet.Env
	dials  []cnet.NodeID
	owners []cnet.DialOwner
	timers []cnet.TimerOwner
}

func (e *dialEnv) DialFor(to cnet.NodeID, _ cnet.Class, _ string, owner cnet.DialOwner) {
	e.dials = append(e.dials, to)
	e.owners = append(e.owners, owner)
}

func (e *dialEnv) AfterFor(_ time.Duration, owner cnet.TimerOwner) clock.Timer {
	e.timers = append(e.timers, owner)
	return stubTimer{}
}

type stubTimer struct{}

func (stubTimer) Stop() bool { return false }

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
	s := &Server{cfg: Config{Self: 0}, env: env, qm: qm, view: make([]bool, 2)}
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

// The peer table has a slot for each node of the static configuration and
// never grows, because the records in it are held by pointer. A Hello or a
// join response naming any other node admits nothing, and asking for
// plumbing towards one anyway is a bug the server names.
func TestPeerOutsideConfigurationIsRefused(t *testing.T) {
	s, env := senderTo(nil, nil)
	s.include(2, "hello")
	s.adoptView([]cnet.NodeID{5}, "join response")
	if got := s.View(); len(got) != 0 || len(env.dials) != 0 {
		t.Errorf("view %v and dials %v after hearing of nodes 2 and 5, want neither", got, env.dials)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "no peer slot for node 2") {
			t.Errorf("enqueue towards node 2 recovered %v, want a panic naming the node", r)
		}
	}()
	s.enqueue(2, outMsg{m: &FwdMsg{}, size: sizeFwd, isReq: true, reqID: 7})
}

// A redial armed towards one peer names that peer's record in the table
// when it fires, however many other records were made in between: the
// table is sized once and its records never move.
func TestRedialNamesItsRecordInTheTable(t *testing.T) {
	const n = 8
	env := &dialEnv{}
	s := &Server{cfg: Config{Self: 0}, env: env}
	s.view = make([]bool, n)
	for i := range cnet.NodeID(n) {
		s.view[i] = true
	}
	s.connectPeer(3)
	s.peer(3).DialResult(nil, errors.New("refused"))
	for i := range cnet.NodeID(n) {
		if i != s.cfg.Self && i != 3 {
			s.connectPeer(i)
		}
	}
	if len(env.timers) != 1 {
		t.Fatalf("%d timers armed, want one redial", len(env.timers))
	}
	env.dials, env.owners = nil, nil
	env.timers[0].OnTimer()
	if want := &s.peers[3]; len(env.owners) != 1 || env.owners[0] != want || env.timers[0].(*redial).p != want {
		t.Errorf("the redial dialed %v owned by %v, want node 3 owned by its record %p", env.dials, env.owners, want)
	}
}

// A message sent straight onto an open stream, queue monitoring on,
// allocates nothing.
func TestDirectSendAllocatesNothing(t *testing.T) {
	conn := &stubConn{open: true}
	s, _ := senderTo(conn, qmon.New(qmon.Callbacks{}, rand.New(rand.NewSource(1))))
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
