package server

import (
	"testing"
	"time"

	"press/internal/cnet"
	"press/internal/machine"
	"press/internal/metrics"
	"press/internal/sim"
	"press/internal/simdisk"
	"press/internal/simnet"
	"press/internal/trace"
)

// A client connection is either admitted — then the connection's word
// names its request and it is nowhere in the accept queue — or it waits in
// the accept queue with no word. TestClientCloseFindsItsRequest fills
// every service slot, queues four more requests behind them on a disk that
// takes a second per read and never stalls (its queue holds every read),
// and closes one connection of each kind: the waiter's close takes exactly
// its entry out of the queue, and the admitted one's close ends its
// request and leaves the queue as it was but for the head, which gets the
// freed slot.
func TestClientCloseFindsItsRequest(t *testing.T) {
	const waiting = 4
	s := sim.New(1)
	log := &metrics.Log{}
	net := simnet.New(s, simnet.DefaultConfig(), log)
	cat := trace.NewCatalog(100, 27*1024, 0.8)
	disks := simdisk.NewArray(s, s.NewRand("disks"), simdisk.Config{MeanService: time.Second, QueueCap: maxConcurrent + waiting, Workers: 1}, 1)
	m := machine.New(s, net, 0, disks, log)
	var srv *Server
	m.AddProc("press", func(env *machine.Env) {
		srv = New(Config{Self: 0, Nodes: []cnet.NodeID{0}, Catalog: cat, CacheBytes: 10 * 27 * 1024}, env, disks, nil)
	})

	// Request i asks for document 10+i, so request maxConcurrent+k is
	// document first+k.
	const first = 10 + maxConcurrent
	client := net.AddIface(1000)
	conns := make([]cnet.Conn, maxConcurrent+waiting)
	for i := range conns {
		i := i
		client.Dial(0, cnet.ClassClient, PortHTTP, cnet.StreamHandlers{}, func(c cnet.Conn, err error) {
			if err != nil {
				t.Fatalf("dial %d: %v", i, err)
			}
			conns[i] = c
			c.TrySend(&ReqMsg{Doc: trace.DocID(10 + i)}, 64)
		})
		s.RunFor(time.Millisecond) // one after the other, so the queue order is the dial order
	}
	s.RunFor(200 * time.Millisecond) // every admission charged; the first read ends at about 1 s

	queued := func() []trace.DocID {
		var docs []trace.DocID
		for _, pr := range srv.acceptQ[srv.acceptHead:] {
			docs = append(docs, pr.msg.Doc)
		}
		return docs
	}
	if srv.Active() != maxConcurrent || !equalDocs(queued(), first, first+1, first+2, first+3) {
		t.Fatalf("set-up: active %d, queue %v; want %d requests in service and %d..%d waiting", srv.Active(), queued(), maxConcurrent, first, first+3)
	}
	for _, pr := range srv.acceptQ[srv.acceptHead:] {
		if w := srv.env.ConnWord(pr.conn); w != 0 {
			t.Fatalf("a waiting connection carries word %d", w)
		}
	}
	admitted := srv.inflight.ascending()[0].id // the record itself is recycled when the request ends
	if w := srv.env.ConnWord(srv.inflight.get(admitted).client); w != admitted {
		t.Fatalf("the admitted connection carries word %d, its request is %d", w, admitted)
	}

	// A waiter in the middle of the queue gives up.
	conns[maxConcurrent+1].Close()
	s.RunFor(10 * time.Millisecond)
	if srv.Active() != maxConcurrent || !equalDocs(queued(), first, first+2, first+3) {
		t.Fatalf("after the waiter's close: active %d, queue %v; want %d, %d, %d", srv.Active(), queued(), first, first+2, first+3)
	}

	// The first admitted client gives up: its request ends, the head of
	// the queue gets the slot, and the rest of the queue is untouched.
	conns[0].Close()
	s.RunFor(10 * time.Millisecond)
	if srv.inflight.get(admitted) != nil {
		t.Fatal("the closed client's request is still in flight")
	}
	if srv.Active() != maxConcurrent || !equalDocs(queued(), first+2, first+3) {
		t.Fatalf("after the admitted client's close: active %d, queue %v; want %d, %d", srv.Active(), queued(), first+2, first+3)
	}
	now := srv.inflight.ascending()
	if len(now) != maxConcurrent {
		t.Fatalf("%d requests in flight, want %d", len(now), maxConcurrent)
	}
	if last := now[len(now)-1]; last.doc != first || srv.env.ConnWord(last.client) != last.id {
		t.Fatalf("request %d did not take the slot: the newest in flight is %+v", first, last)
	}

	// Everything left is served in order; the table and the queue drain.
	s.RunFor(time.Minute)
	if srv.Active() != 0 || srv.inflight.n != 0 || srv.QueuedAccepts() != 0 {
		t.Fatalf("not drained: active %d, in flight %d, queued %d", srv.Active(), srv.inflight.n, srv.QueuedAccepts())
	}
	if got, want := srv.Stats().Served, uint64(maxConcurrent+waiting-2); got != want {
		t.Fatalf("served %d, want %d (every request but the two closed ones)", got, want)
	}
}

func equalDocs(got []trace.DocID, want ...trace.DocID) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// Under overload the accept queue never drains: every admission pops its
// head and a new arrival takes its place. The consumed prefix is reclaimed
// as the array fills, so 10,000 arrivals through a standing backlog leave
// the array within twice the backlog, not one entry per arrival.
func TestStandingBacklogKeepsItsArray(t *testing.T) {
	s := &Server{active: maxConcurrent}
	backlog := acceptBacklog
	arrivals, pops := 0, 0
	arrive := func() {
		s.handleRequest(nil, &ReqMsg{Doc: trace.DocID(arrivals)})
		arrivals++
	}
	for range backlog - 1 {
		arrive()
	}
	for range 10_000 {
		arrive()
		if q := s.QueuedAccepts(); q != backlog {
			t.Fatalf("arrival %d: %d waiting, want the backlog of %d", arrivals, q, backlog)
		}
		if next := s.popAccept(); next.msg.Doc != trace.DocID(pops) {
			t.Fatalf("pop %d took request %d: the queue lost its order", pops, next.msg.Doc)
		}
		pops++
		if c := cap(s.acceptQ); c > 2*backlog {
			t.Fatalf("arrival %d: the accept queue's array holds %d entries, want at most %d", arrivals, c, 2*backlog)
		}
	}
}
