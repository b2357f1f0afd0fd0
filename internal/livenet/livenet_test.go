package livenet

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"press/internal/cnet"
	"press/internal/metrics"
	"press/internal/server"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// killAll kills every process in w, so a test leaves nothing running that
// a later test's descriptor or goroutine count would see.
func killAll(w *World) {
	var procs []*Proc
	w.mu.Lock()
	for _, n := range w.nodes {
		n.mu.Lock()
		for _, p := range n.procs {
			procs = append(procs, p)
		}
		n.mu.Unlock()
	}
	w.mu.Unlock()
	for _, p := range procs {
		p.Kill()
	}
}

func TestDatagramRoundTrip(t *testing.T) {
	w := NewWorld(1)
	defer killAll(w)
	a := w.AddNode(0)
	b := w.AddNode(1)
	var got atomic.Value
	b.Spawn("recv", func(env cnet.Env) {
		env.BindDatagram("hb", func(from cnet.NodeID, m cnet.Message) {
			got.Store([2]any{from, m})
		})
	})
	var envA cnet.Env
	ready := make(chan struct{})
	a.Spawn("send", func(env cnet.Env) { envA = env; close(ready) })
	<-ready
	waitFor(t, "udp registration", func() bool {
		envA.Send(1, cnet.ClassIntra, "hb", &server.HBMsg{From: 0, Load: 7}, 48)
		return got.Load() != nil
	})
	pair := got.Load().([2]any)
	if pair[0].(cnet.NodeID) != 0 || pair[1].(*server.HBMsg).Load != 7 {
		t.Fatalf("got %v", pair)
	}
}

func TestStreamRoundTripAndClose(t *testing.T) {
	w := NewWorld(1)
	defer killAll(w)
	a := w.AddNode(0)
	b := w.AddNode(1)
	var serverGot atomic.Int32
	b.Spawn("srv", func(env cnet.Env) {
		env.Listen("press", func(c cnet.Conn) cnet.StreamHandlers {
			return cnet.StreamHandlers{
				OnMessage: func(c cnet.Conn, m cnet.Message) {
					serverGot.Add(1)
					c.TrySend(&server.RespMsg{OK: true}, 128)
				},
			}
		})
	})
	var clientGot atomic.Int32
	var closedErr atomic.Value
	a.Spawn("cli", func(env cnet.Env) {
		var dial func()
		dial = func() {
			env.Dial(1, cnet.ClassIntra, "press", cnet.StreamHandlers{
				OnMessage: func(c cnet.Conn, m cnet.Message) {
					clientGot.Add(1)
					c.Close()
				},
				OnClose: func(c cnet.Conn, err error) { closedErr.Store(err) },
			}, func(c cnet.Conn, err error) {
				if err != nil {
					// Listener may not be registered yet; retry.
					env.Clock().AfterFunc(20*time.Millisecond, dial)
					return
				}
				c.TrySend(&server.ReqMsg{ID: 1, Doc: 2}, 256)
			})
		}
		dial()
	})
	waitFor(t, "round trip", func() bool { return clientGot.Load() == 1 && serverGot.Load() == 1 })
}

func TestKillDeliversResetAndRestartWorks(t *testing.T) {
	w := NewWorld(1)
	defer killAll(w)
	a := w.AddNode(0)
	b := w.AddNode(1)
	boots := atomic.Int32{}
	srv := b.Spawn("srv", func(env cnet.Env) {
		boots.Add(1)
		env.Listen("press", func(c cnet.Conn) cnet.StreamHandlers {
			return cnet.StreamHandlers{}
		})
	})
	var connected atomic.Bool
	var closeErr atomic.Value
	a.Spawn("cli", func(env cnet.Env) {
		var dial func()
		dial = func() {
			env.Dial(1, cnet.ClassIntra, "press", cnet.StreamHandlers{
				OnClose: func(c cnet.Conn, err error) { closeErr.Store(err) },
			}, func(c cnet.Conn, err error) {
				if err != nil {
					env.Clock().AfterFunc(20*time.Millisecond, dial)
					return
				}
				connected.Store(true)
			})
		}
		dial()
	})
	waitFor(t, "connect", connected.Load)
	srv.Kill()
	waitFor(t, "reset delivery", func() bool { return closeErr.Load() != nil })
	if err := closeErr.Load().(error); !errors.Is(err, cnet.ErrReset) && !errors.Is(err, cnet.ErrClosed) {
		t.Fatalf("close err = %v", err)
	}
	if srv.Alive() {
		t.Fatal("killed proc still alive")
	}
	srv.Start()
	waitFor(t, "reboot", func() bool { return boots.Load() == 2 && srv.Alive() })
}

func TestTimersDieWithIncarnation(t *testing.T) {
	w := NewWorld(1)
	n := w.AddNode(0)
	var fired atomic.Int32
	p := n.Spawn("app", func(env cnet.Env) {
		env.Clock().AfterFunc(100*time.Millisecond, func() { fired.Add(1) })
	})
	p.Kill()
	time.Sleep(200 * time.Millisecond)
	if fired.Load() != 0 {
		t.Fatal("timer of killed incarnation fired")
	}
}

func TestStallResumeLive(t *testing.T) {
	w := NewWorld(1)
	defer killAll(w)
	n := w.AddNode(0)
	var ran atomic.Int32
	var env cnet.Env
	ready := make(chan struct{})
	n.Spawn("app", func(e cnet.Env) { env = e; close(ready) })
	<-ready
	env.Stall()
	env.Clock().AfterFunc(10*time.Millisecond, func() { ran.Add(1) })
	time.Sleep(100 * time.Millisecond)
	if ran.Load() != 0 {
		t.Fatal("stalled dispatch ran a handler")
	}
	env.Resume()
	waitFor(t, "resume", func() bool { return ran.Load() == 1 })
}

// TestDispatchQueueKeepsOrderUnderAStandingBacklog drives the queue the
// way a saturated process does: work arrives as fast as it is taken, the
// queue never drains, and still nothing is reordered and the backing
// array stays the size of the backlog, not of the traffic. The test holds
// the run token, so every post queues and the test takes.
func TestDispatchQueueKeepsOrderUnderAStandingBacklog(t *testing.T) {
	e := &Env{running: true}
	const backlog, total = 10, 100000
	var ran []int
	for i := 0; i < total; i++ {
		e.post(func() { ran = append(ran, i) })
		if len(e.queue)-e.head > backlog {
			e.take().run()
		}
		if cap(e.queue) > 8*backlog {
			t.Fatalf("after %d posts with %d waiting the queue holds %d slots", i+1, backlog, cap(e.queue))
		}
	}
	for e.head < len(e.queue) {
		e.take().run()
	}
	if len(ran) != total {
		t.Fatalf("%d of %d tasks ran", len(ran), total)
	}
	for i, v := range ran {
		if v != i {
			t.Fatalf("task %d ran in position %d", v, i)
		}
	}
	if e.head != 0 || len(e.queue) != 0 {
		t.Fatalf("a drained queue did not rewind: head %d, len %d", e.head, len(e.queue))
	}
}

func TestMulticastReachesGroup(t *testing.T) {
	w := NewWorld(1)
	defer killAll(w)
	var got [3]atomic.Int32
	var envs [3]cnet.Env
	ready := make(chan struct{}, 3)
	for i := 0; i < 3; i++ {
		i := i
		n := w.AddNode(cnet.NodeID(i))
		n.Spawn("app", func(env cnet.Env) {
			envs[i] = env
			env.JoinGroup("g")
			env.BindDatagram("p", func(from cnet.NodeID, m cnet.Message) { got[i].Add(1) })
			ready <- struct{}{}
		})
	}
	for i := 0; i < 3; i++ {
		<-ready
	}
	waitFor(t, "multicast delivery", func() bool {
		envs[0].Multicast("g", "p", &server.HBMsg{From: 0}, 48)
		return got[1].Load() > 0 && got[2].Load() > 0
	})
	if got[0].Load() != 0 {
		t.Fatal("sender received its own multicast")
	}
}

func TestLivePressClusterFormsAndServes(t *testing.T) {
	// A miniature end-to-end check that the protocol stack really runs on
	// sockets: 2 cooperative PRESS nodes, one client request.
	w := NewWorld(1)
	defer killAll(w)
	ids := []cnet.NodeID{0, 1}
	cat := testCatalog()
	for i := range ids {
		i := i
		n := w.AddNode(ids[i])
		n.Spawn("press", func(env cnet.Env) {
			server.New(server.Config{
				Self: ids[i], Nodes: ids, Cooperative: true,
				HeartbeatPeriod: 200 * time.Millisecond,
				JoinTimeout:     300 * time.Millisecond,
				Catalog:         cat, CacheBytes: cat.TotalBytes(),
			}, env, MemDisk{Service: time.Millisecond}, nil)
		})
	}
	cli := w.AddNode(100)
	var ok atomic.Bool
	cli.Spawn("driver", func(env cnet.Env) {
		var try func()
		try = func() {
			env.Dial(0, cnet.ClassClient, server.PortHTTP, cnet.StreamHandlers{
				OnMessage: func(c cnet.Conn, m cnet.Message) {
					if r, is := m.(*server.RespMsg); is && r.OK {
						ok.Store(true)
					}
					c.Close()
				},
			}, func(c cnet.Conn, err error) {
				if err != nil {
					env.Clock().AfterFunc(50*time.Millisecond, try)
					return
				}
				c.TrySend(&server.ReqMsg{ID: 9, Doc: 3}, 256)
			})
		}
		try()
	})
	waitFor(t, "live request served", ok.Load)
	// Nothing the protocols sent was refused by the transport: a message
	// type missing from either codec shows here.
	for _, kind := range []metrics.KindID{KSendDrop, KWireFault} {
		if e, found := w.Log().Query().Kind(kind).First(); found {
			t.Errorf("the transport reports %v", e)
		}
	}
}
