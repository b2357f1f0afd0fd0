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

// streamCount is how many streams the incarnation's trunks still hold:
// the per-conversation state a finished conversation must give back (its
// socket is the trunk's, shared with every other conversation).
func (e *Env) streamCount() int {
	e.resMu.Lock()
	defer e.resMu.Unlock()
	n := 0
	for t := range e.trunks {
		t.mu.Lock()
		n += len(t.streams)
		t.mu.Unlock()
	}
	return n
}

// TestFinishedConnectionsReleaseDescriptors holds the connection lifecycle
// to its contract: whichever side ends a conversation, and however, both
// ends give back their stream, and a killed dialer its trunk's socket and
// read goroutine.
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
	held0 := srvEnv.streamCount()

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
		held := srvEnv.streamCount() - held0 + cliEnv.streamCount()
		if fd1 <= fd0+slack && g1 <= g0+slack && held == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d conversations of each kind: descriptors %d -> %d, goroutines %d -> %d, %d streams of finished conversations still held",
				cycles, fd0, fd1, g0, g1, held)
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
	w.tcpAddrs[portKey{5, "press"}] = &listener{addr: addr}
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

// TestStreamsShareOnePeerTrunk holds the trunk to its contract. Two
// thousand dial, request, reply and close conversations between two
// processes ride one trunk, so descriptors and goroutines stay where the
// first conversation left them, and sixteen open streams cost none either.
// Killing the listener resets the trunk, and each of the sixteen hears
// ErrReset once; a dial after the kill is refused, and one after the
// restart is served on a new trunk.
func TestStreamsShareOnePeerTrunk(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts the entries of /proc/self/fd")
	}
	cycles := 2000
	if testing.Short() {
		cycles = 300
	}
	w := NewWorld(1)
	defer killAll(w)
	up := make(chan struct{}, 1)
	srv := w.AddNode(0).Spawn("srv", func(env cnet.Env) {
		env.Listen("press", func(cnet.Conn) cnet.StreamHandlers {
			return cnet.StreamHandlers{OnMessage: func(c cnet.Conn, m cnet.Message) {
				c.TrySend(&server.RespMsg{ID: m.(*server.ReqMsg).ID, OK: true}, 128)
			}}
		})
		up <- struct{}{}
	})
	recv(t, up, "the listener")
	_, cli := spawnIdle(t, w, 1)

	// dial opens n streams and sends a request on each. A stream's reply
	// is reported on replied; the end it is told of, or the dial's error,
	// on ended. With hangUp the dialer closes each stream at its reply.
	replied, ended := make(chan struct{}, 16), make(chan error, 32)
	dial := func(n int, hangUp bool) {
		cli.post(func() {
			for i := 0; i < n; i++ {
				cli.Dial(0, cnet.ClassIntra, "press", cnet.StreamHandlers{
					OnMessage: func(c cnet.Conn, _ cnet.Message) {
						if hangUp {
							c.Close()
						}
						replied <- struct{}{}
					},
					OnClose: func(_ cnet.Conn, err error) { ended <- err },
				}, func(c cnet.Conn, err error) {
					if err != nil {
						ended <- err
						return
					}
					c.TrySend(&server.ReqMsg{ID: uint64(i)}, 256)
				})
			}
		})
	}
	trunkOf := func() *trunk {
		cli.resMu.Lock()
		defer cli.resMu.Unlock()
		for _, tr := range cli.dialed {
			return tr
		}
		return nil
	}
	const slack = 2
	dial(1, true)
	recv(t, replied, "the first conversation")
	fd0, g0 := openDescriptors(t), runtime.NumGoroutine()
	first := trunkOf()
	for i := 0; i < cycles; i++ {
		dial(1, true)
		recv(t, replied, "a conversation")
		if fd, g := openDescriptors(t), runtime.NumGoroutine(); fd > fd0+slack || g > g0+slack {
			t.Fatalf("after %d conversations: descriptors %d -> %d, goroutines %d -> %d", i+1, fd0, fd, g0, g)
		}
	}
	select {
	case err := <-ended:
		t.Fatalf("a conversation the dialer closed told the dialer %v", err)
	default:
	}

	dial(16, false)
	for i := 0; i < 16; i++ {
		recv(t, replied, "a reply on each of 16 open streams")
	}
	if fd, g := openDescriptors(t), runtime.NumGoroutine(); fd > fd0+slack || g > g0+slack || trunkOf() != first {
		t.Fatalf("16 open streams: descriptors %d -> %d, goroutines %d -> %d, still the first trunk %v", fd0, fd, g0, g, trunkOf() == first)
	}
	srv.Kill()
	for i := 0; i < 16; i++ {
		if err := recv(t, ended, "a reset on each of 16 open streams"); !errors.Is(err, cnet.ErrReset) {
			t.Fatalf("stream %d of 16 of a killed listener was told %v, want cnet.ErrReset", i+1, err)
		}
	}
	select {
	case err := <-ended:
		t.Fatalf("a stream of the killed listener was told of its end twice, the second time %v", err)
	case <-time.After(100 * time.Millisecond):
	}

	dial(1, true)
	if err := recv(t, ended, "a dial to the killed listener"); !errors.Is(err, cnet.ErrRefused) {
		t.Fatalf("a dial to a killed listener: %v, want cnet.ErrRefused", err)
	}
	srv.Start()
	recv(t, up, "the restarted listener")
	dial(1, true)
	recv(t, replied, "a conversation with the restarted listener")
	restarted := trunkOf()
	if restarted == nil || restarted == first {
		t.Fatalf("the restarted listener was reached on trunk %p, the first was %p", restarted, first)
	}

	// A trunk whose ids are spent takes no more dials: the next connects
	// a fresh one.
	restarted.mu.Lock()
	restarted.ids = maxStreamID
	restarted.mu.Unlock()
	dial(1, true)
	recv(t, replied, "a conversation after the ids ran out")
	if tr := trunkOf(); tr == nil || tr == restarted {
		t.Fatalf("a dial after the trunk's last id rode trunk %p, the spent one is %p", tr, restarted)
	}
}
