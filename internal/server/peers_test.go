package server

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"press/internal/clock"
	"press/internal/cnet"
	"press/internal/qmon"
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

// senderTo builds a server with plumbing towards node 1 over conn (none
// when conn is nil).
func senderTo(conn *stubConn, qm *qmon.Monitor) (*Server, *dialEnv) {
	env := &dialEnv{}
	s := &Server{cfg: Config{Self: 0}, env: env, qm: qm, view: make([]bool, 2)}
	if conn != nil {
		s.peer(1).conn = conn
	}
	return s, env
}

// A message that finds nothing waiting on an open stream is sent at once,
// without a queue; queue monitoring still sees what it saw when every
// message went through the queue. A message sent at once is a one-message
// queue that empties, so it ends an overload and no run of them looks like
// a backlog; a message that waits, for a full window or for a stream, is
// counted with those ahead of it, so the RerouteThreshold-th waiting
// request starts rerouting, and not one before.
func TestEnqueueObservesAsQueued(t *testing.T) {
	for _, tc := range []struct {
		name  string
		conn  *stubConn
		waits bool
		dials int
	}{
		{"open-window", &stubConn{open: true}, false, 0},
		{"window-full", &stubConn{}, true, 0},
		{"no-stream", nil, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recoveries := 0
			qm := qmon.New(qmon.Callbacks{OnRecover: func(cnet.NodeID) { recoveries++ }}, rand.New(rand.NewSource(1)))
			s, env := senderTo(tc.conn, qm)
			send := func() { s.enqueue(1, outMsg{m: &FwdMsg{}, size: sizeFwd, isReq: true, reqID: 7}) }
			qm.Observe(1, qmon.RerouteThreshold, qmon.RerouteThreshold) // an overloaded peer
			send()
			if recoveries != 1 || qm.Rerouting(1) {
				t.Errorf("one message sent: %d recoveries, rerouting %v; want the overload over", recoveries, qm.Rerouting(1))
			}
			for range qmon.RerouteThreshold - 2 {
				send()
			}
			if qm.Rerouting(1) {
				t.Errorf("%d messages sent: rerouting already", qmon.RerouteThreshold-1)
			}
			send()
			if qm.Rerouting(1) != tc.waits {
				t.Errorf("%d messages sent: rerouting %v, want %v", qmon.RerouteThreshold, qm.Rerouting(1), tc.waits)
			}
			waiting := 0
			if tc.waits {
				waiting = qmon.RerouteThreshold
			}
			if got := s.SendQueueLen(1); got != waiting {
				t.Errorf("%d messages wait, want %d", got, waiting)
			}
			if len(env.dials) != tc.dials {
				t.Errorf("%d dials, want %d", len(env.dials), tc.dials)
			}
			if p := s.peerAt(1); !tc.waits && p.q != nil {
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
