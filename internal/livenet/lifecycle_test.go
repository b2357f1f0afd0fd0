package livenet

import (
	"errors"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"press/internal/cnet"
	"press/internal/server"
	"press/internal/trace"
)

// The three ways a conversation ends, carried in the request's Doc so the
// one listener knows which part it plays.
const (
	dialerCloses trace.DocID = iota
	acceptorCloses
	dialerKilled
)

func openDescriptors(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

func (e *Env) closerCount() int {
	e.resMu.Lock()
	defer e.resMu.Unlock()
	return len(e.closers)
}

// TestFinishedConnectionsReleaseDescriptors holds the connection lifecycle
// to its contract: whichever side ends a conversation, and however, both
// ends give back their socket, their shutdown hook and their read
// goroutine. Before the read loop closed what it had finished with, every
// cycle here left a descriptor and a hook behind on the side that saw EOF.
func TestFinishedConnectionsReleaseDescriptors(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts the entries of /proc/self/fd")
	}
	cycles := 2000
	if testing.Short() {
		cycles = 300
	}

	w := NewWorld(1)
	ended := make(chan error, 1)      // the OnClose of the side that did not end the conversation
	replied := make(chan struct{}, 1) // dialerKilled: the reply is in, kill now
	up := make(chan *Env, 1)
	w.AddNode(0).Spawn("srv", func(env cnet.Env) {
		env.Listen("press", func(cnet.Conn) cnet.StreamHandlers {
			closing := false
			return cnet.StreamHandlers{
				OnMessage: func(c cnet.Conn, m cnet.Message) {
					req := m.(*server.ReqMsg)
					c.TrySend(&server.RespMsg{ID: req.ID, OK: true}, 128)
					if req.Doc == acceptorCloses {
						closing = true
						c.Close()
					}
				},
				OnClose: func(_ cnet.Conn, err error) {
					if !closing {
						ended <- err
					}
				},
			}
		})
		up <- env.(*Env)
	})
	srvEnv := <-up

	// converse dials, sends one request of the given kind and plays the
	// dialer's part of it.
	converse := func(env cnet.Env, kind trace.DocID) {
		env.Dial(0, cnet.ClassIntra, "press", cnet.StreamHandlers{
			OnMessage: func(c cnet.Conn, m cnet.Message) {
				switch kind {
				case dialerCloses:
					c.Close()
				case dialerKilled:
					replied <- struct{}{}
				}
			},
			OnClose: func(_ cnet.Conn, err error) {
				if kind == acceptorCloses {
					ended <- err
				}
			},
		}, func(c cnet.Conn, err error) {
			if err != nil {
				ended <- err
				return
			}
			c.TrySend(&server.ReqMsg{ID: 7, Doc: kind}, 256)
		})
	}
	cli := w.AddNode(1).Spawn("cli", func(env cnet.Env) { up <- env.(*Env) })
	cliEnv := <-up
	// victim dials as soon as it boots, so every Start is one conversation.
	victim := w.AddNode(2).Spawn("victim", func(env cnet.Env) { converse(env, dialerKilled) })
	defer func() {
		cli.Kill()
		victim.Kill()
		w.nodes[0].Proc("srv").Kill()
	}()

	awaitEnd := func(i int, kind trace.DocID, want error) {
		t.Helper()
		select {
		case err := <-ended:
			if !errors.Is(err, want) {
				t.Fatalf("cycle %d, kind %d: conversation ended with %v, want %v", i, kind, err, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("cycle %d, kind %d: the other side never saw the conversation end", i, kind)
		}
	}
	killVictim := func(i int) {
		t.Helper()
		select {
		case <-replied:
		case <-time.After(5 * time.Second):
			t.Fatalf("cycle %d: no reply reached the process about to be killed", i)
		}
		victim.Kill()
		awaitEnd(i, dialerKilled, cnet.ErrReset)
	}

	// One conversation of each kind first, so the baseline already counts
	// whatever the runtime opens lazily (its epoll descriptor, idle Ps).
	for _, kind := range []trace.DocID{dialerCloses, acceptorCloses} {
		cliEnv.post(func() { converse(cliEnv, kind) })
		awaitEnd(-1, kind, cnet.ErrClosed)
	}
	killVictim(-1)
	settle := func() (fds, goroutines int) {
		time.Sleep(20 * time.Millisecond)
		runtime.GC()
		return openDescriptors(t), runtime.NumGoroutine()
	}
	fd0, g0 := settle()
	hooks0 := srvEnv.closerCount()

	for i := 0; i < cycles; i++ {
		for _, kind := range []trace.DocID{dialerCloses, acceptorCloses} {
			cliEnv.post(func() { converse(cliEnv, kind) })
			awaitEnd(i, kind, cnet.ErrClosed)
		}
		victim.Start()
		killVictim(i)
	}

	const slack = 8
	deadline := time.Now().Add(5 * time.Second)
	for {
		fd1, g1 := settle()
		hooks := srvEnv.closerCount() - hooks0 + cliEnv.closerCount()
		if fd1 <= fd0+slack && g1 <= g0+slack && hooks == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d conversations of each kind: descriptors %d -> %d, goroutines %d -> %d, %d shutdown hooks of finished connections still registered",
				cycles, fd0, fd1, g0, g1, hooks)
		}
	}
}

// TestCloseIsNotReportedToTheCloser pins the simulator's rule on the live
// transport: OnClose is news from the peer, so the side that calls Close
// hears nothing, and the peer hears ErrClosed exactly once.
func TestCloseIsNotReportedToTheCloser(t *testing.T) {
	w := NewWorld(1)
	peerTold := make(chan error, 2)
	closerTold := make(chan error, 2)
	up := make(chan struct{})
	srv := w.AddNode(0).Spawn("srv", func(env cnet.Env) {
		env.Listen("press", func(cnet.Conn) cnet.StreamHandlers {
			return cnet.StreamHandlers{OnClose: func(_ cnet.Conn, err error) { peerTold <- err }}
		})
		close(up)
	})
	<-up
	cli := w.AddNode(1).Spawn("cli", func(env cnet.Env) {
		env.Dial(0, cnet.ClassIntra, "press", cnet.StreamHandlers{
			OnClose: func(_ cnet.Conn, err error) { closerTold <- err },
		}, func(c cnet.Conn, err error) {
			if err != nil {
				closerTold <- err
				return
			}
			c.Close()
		})
	})
	defer srv.Kill()
	defer cli.Kill()
	select {
	case err := <-peerTold:
		if !errors.Is(err, cnet.ErrClosed) {
			t.Fatalf("peer of a closed connection was told %v, want cnet.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer never learned of the close")
	}
	select {
	case err := <-closerTold:
		t.Fatalf("the side that closed was told %v", err)
	case err := <-peerTold:
		t.Fatalf("peer was told twice, second time %v", err)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestDialToAVanishedListenerIsRefused pins the errno classification: the
// registry still names an address, nothing listens there any more, and
// the kernel's ECONNREFUSED must come back as cnet.ErrRefused, not as a
// timeout.
func TestDialToAVanishedListenerIsRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	w := NewWorld(1)
	w.tcpAddrs[portKey{5, "press"}] = addr
	got := make(chan error, 1)
	p := w.AddNode(0).Spawn("cli", func(env cnet.Env) {
		env.Dial(5, cnet.ClassIntra, "press", cnet.StreamHandlers{}, func(c cnet.Conn, err error) {
			if c != nil {
				c.Close()
			}
			got <- err
		})
	})
	defer p.Kill()
	select {
	case err := <-got:
		if !errors.Is(err, cnet.ErrRefused) {
			t.Fatalf("dial to a closed port: %v, want cnet.ErrRefused", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dial never completed")
	}
}
