package livenet

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"press/internal/cnet"
	"press/internal/server"
)

// spawnIdle starts a process with no sockets on a new node and returns it
// and its environment once start has run and the goroutine that ran it
// has handed the run token back, so the caller's next post runs at once.
func spawnIdle(t *testing.T, w *World, id cnet.NodeID) (*Proc, *Env) {
	t.Helper()
	up := make(chan *Env, 1)
	p := w.AddNode(id).Spawn("app", func(env cnet.Env) { up <- env.(*Env) })
	var e *Env
	select {
	case e = <-up:
	case <-time.After(5 * time.Second):
		t.Fatal("start never ran")
	}
	waitFor(t, "the run token", func() bool {
		e.qmu.Lock()
		defer e.qmu.Unlock()
		return !e.running
	})
	return p, e
}

// TestHandlersOfOneProcessNeverOverlap posts from many goroutines at once,
// so the run token changes hands all the time: the tasks of one process
// still run one at a time, and each poster's in the order it posted them.
func TestHandlersOfOneProcessNeverOverlap(t *testing.T) {
	const posters, each = 8, 10000
	p, e := spawnIdle(t, NewWorld(1), 0)
	defer p.Kill()

	var inside, done atomic.Int32
	var overlaps atomic.Int32
	var next [posters]int // written only by tasks, which the token serialises
	var misordered atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < posters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				e.post(func() {
					if inside.Add(1) != 1 {
						overlaps.Add(1)
					}
					if next[g] != i {
						misordered.Add(1)
					}
					next[g] = i + 1
					inside.Add(-1)
					done.Add(1)
				})
			}
		}()
	}
	wg.Wait()
	waitFor(t, "every task to run", func() bool { return done.Load() == posters*each })
	if n := overlaps.Load(); n != 0 {
		t.Errorf("%d tasks started while another task of the same process was running", n)
	}
	if n := misordered.Load(); n != 0 {
		t.Errorf("%d tasks ran out of the order their poster posted them in", n)
	}
}

// TestResumeFromOutsideRunsTheBacklog stalls a process from a goroutine
// that is none of its tasks, queues work, and resumes it from there: what
// queued during the stall has run by the time Resume returns. A task that
// stalls its own process ends the run after itself.
func TestResumeFromOutsideRunsTheBacklog(t *testing.T) {
	p, e := spawnIdle(t, NewWorld(1), 0)
	defer p.Kill()

	var ran atomic.Int32
	e.Stall()
	for i := 0; i < 10; i++ {
		e.post(func() { ran.Add(1) })
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("a stalled process ran %d tasks", n)
	}
	e.Resume()
	if n := ran.Load(); n != 10 {
		t.Fatalf("after Resume returned %d of the 10 queued tasks had run", n)
	}

	e.post(func() {
		e.Stall()
		e.post(func() { ran.Add(1) })
	})
	if n := ran.Load(); n != 10 {
		t.Fatalf("a task posted behind a stall ran")
	}
	e.Resume()
	if n := ran.Load(); n != 11 {
		t.Fatalf("after the second Resume %d tasks had run, want 11", n)
	}
}

// TestNothingQueuedRunsAfterKill kills a process while one of its tasks is
// running and more are queued behind it: the running one finishes, none
// of the queued ones starts, nor anything posted after the kill.
func TestNothingQueuedRunsAfterKill(t *testing.T) {
	p, e := spawnIdle(t, NewWorld(1), 0)

	entered, release := make(chan struct{}), make(chan struct{})
	finished := make(chan struct{})
	go func() {
		e.post(func() {
			close(entered)
			<-release
		})
		close(finished)
	}()
	<-entered
	var ran atomic.Int32
	for i := 0; i < 10; i++ {
		e.post(func() { ran.Add(1) })
	}
	p.Kill()
	e.post(func() { ran.Add(1) })
	close(release)
	<-finished
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d tasks ran after Kill returned", n)
	}
}

// TestStartThatAsksTheNodeDoesNotDeadlock: Spawn holds the node's lock
// while it boots, so start must not run on Spawn's goroutine.
func TestStartThatAsksTheNodeDoesNotDeadlock(t *testing.T) {
	n := NewWorld(1).AddNode(0)
	alive := make(chan bool, 1)
	go n.Spawn("app", func(cnet.Env) { alive <- n.Proc("app").Alive() })
	select {
	case ok := <-alive:
		n.Proc("app").Kill()
		if !ok {
			t.Fatal("a process asked about itself from its start is not alive")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("start that calls Node.Proc and Proc.Alive never finished")
	}
}

// TestIdleProcessesHoldNoGoroutine: with no sockets and nothing to do a
// process is data, not a goroutine waiting for work.
func TestIdleProcessesHoldNoGoroutine(t *testing.T) {
	w := NewWorld(1)
	g0 := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		p, _ := spawnIdle(t, w, cnet.NodeID(i))
		defer p.Kill()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > g0 {
		if time.Now().After(deadline) {
			t.Fatalf("20 idle processes hold %d goroutines", runtime.NumGoroutine()-g0)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDatagramsLeaveFromOneSocket: every datagram of an incarnation leaves
// from the same socket, so a thousand of them cost no descriptor; Kill
// closes it, and a Send after Kill opens nothing.
func TestDatagramsLeaveFromOneSocket(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts the entries of /proc/self/fd")
	}
	w := NewWorld(1)
	raw, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	w.udpAddrs[portKey{50, "p"}] = raw.LocalAddr().(*net.UDPAddr)
	pkt := make([]byte, 64<<10)
	// sendOne sends one heartbeat and returns the address it came from, or
	// nil if nothing arrived.
	sendOne := func(e *Env, wait time.Duration) net.Addr {
		e.Send(50, cnet.ClassIntra, "p", &server.HBMsg{From: 0, Load: 1}, 48)
		raw.SetReadDeadline(time.Now().Add(wait))
		if _, from, err := raw.ReadFrom(pkt); err == nil {
			return from
		}
		return nil
	}

	p, e := spawnIdle(t, w, 0)
	src := sendOne(e, 5*time.Second)
	if src == nil {
		t.Fatal("the first datagram never arrived")
	}
	fd0 := openDescriptors(t)
	for i := 0; i < 1000; i++ {
		if from := sendOne(e, 5*time.Second); from == nil || from.String() != src.String() {
			t.Fatalf("datagram %d came from %v, the first from %v", i, from, src)
		}
	}
	// Processes other tests left running open and close sockets of their
	// own; a socket per datagram would be a thousand.
	const slack = 8
	if fd1 := openDescriptors(t); fd1 > fd0+slack {
		t.Fatalf("1,000 datagrams moved the open descriptors from %d to %d", fd0, fd1)
	}

	p.Kill()
	if _, err := e.udp.WriteToUDP(nil, raw.LocalAddr().(*net.UDPAddr)); !errors.Is(err, net.ErrClosed) {
		t.Errorf("after Kill the sending socket writes with error %v, want net.ErrClosed", err)
	}
	if from := sendOne(e, 100*time.Millisecond); from != nil {
		t.Errorf("a killed process sent a datagram from %v", from)
	}
	q, never := spawnIdle(t, w, 1)
	q.Kill()
	if from := sendOne(never, 100*time.Millisecond); from != nil || never.udp != nil {
		t.Errorf("a process killed before its first send opened a socket and sent a datagram from %v", from)
	}
}
