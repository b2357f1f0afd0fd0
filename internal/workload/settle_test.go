package workload

import (
	"reflect"
	"testing"
	"time"

	"press/internal/cnet"
	"press/internal/server"
	"press/internal/sim"
	"press/internal/simnet"
	"press/internal/snapio"
	"press/internal/trace"
)

// listed counts the deadlines of kind k pending on g's list.
func listed(g *Generator, k int) int {
	n := 0
	for r := g.lists[k].head; r != nil; r = r.dl[k].next {
		n++
	}
	return n
}

// checkIdle holds an idle world to what it may keep: no request record,
// no deadline, and no pending event but the generator's wakes, at most
// one per deadline list (a wake stays armed when its list empties).
func checkIdle(t *testing.T, s *sim.Sim, g *Generator) {
	t.Helper()
	if n := len(g.reqLive); n != 0 {
		t.Errorf("%d request records still live with nothing in flight", n)
	}
	for k := range g.lists {
		if n := listed(g, k); n != 0 || g.lists[k].tail != nil {
			t.Errorf("deadline list %d holds %d deadlines with nothing in flight", k, n)
		}
	}
	wakes := [2]int{}
	s.VisitPending(func(at time.Duration, seq uint64, afn func(any), arg any) {
		switch {
		case arg == any(g) && snapio.FnPtr(afn) == snapio.FnPtr(connectWake):
			wakes[connectDL]++
		case arg == any(g) && snapio.FnPtr(afn) == snapio.FnPtr(completeWake):
			wakes[completeDL]++
		default:
			t.Errorf("event pending in an idle world at (%v, %d): %s", at, seq, snapio.FnName(afn))
		}
	})
	for k, n := range wakes {
		if n > 1 || (n == 1) != g.woken[k] {
			t.Errorf("deadline list %d: %d wakes pending, armed %v", k, n, g.woken[k])
		}
	}
}

// echoServer answers every request OK at once from pooled records, the
// way the real server's admission path releases and replies.
func echoServer(net *simnet.Network, id cnet.NodeID) {
	var pool cnet.MsgPool[server.RespMsg]
	h := cnet.StreamHandlers{OnMessage: func(c cnet.Conn, m cnet.Message) {
		req := m.(*server.ReqMsg)
		resp := server.NewRespMsg(&pool)
		resp.ID, resp.OK = req.ID, true
		req.Release()
		c.TrySend(resp, 256)
	}}
	net.AddIface(id).Listen(server.PortHTTP, func(cnet.Conn) cnet.StreamHandlers { return h })
}

// An answered request is over: once its reply is in, neither its complete
// timeout nor its record outlives it. (Before the cancellation every
// answered request left a timer and a live record behind for 6 s.) What
// the world keeps is the deadline lists' wakes, one at most per list.
func TestAnsweredRequestsLeaveNothingBehind(t *testing.T) {
	s, net, gen, rec := setup(t, 200, []cnet.NodeID{0})
	echoServer(net, 0)
	gen.Start()
	s.RunFor(10 * time.Second)
	gen.Stop()
	s.RunFor(100 * time.Millisecond) // far less than the 6 s timeout
	if rec.Offered == 0 || rec.Succeeded != rec.Offered {
		t.Fatalf("succeeded %d of %d offered", rec.Succeeded, rec.Offered)
	}
	if gen.completeCancelled != rec.Succeeded {
		t.Errorf("cancelled %d complete timeouts, want one per answered request (%d)", gen.completeCancelled, rec.Succeeded)
	}
	checkIdle(t, s, gen)
}

// heldServer accepts and stays silent; the test replies by hand on the
// accepted connection.
func heldServer(net *simnet.Network, id cnet.NodeID, accepted *cnet.Conn) {
	net.AddIface(id).Listen(server.PortHTTP, func(c cnet.Conn) cnet.StreamHandlers {
		*accepted = c
		return cnet.StreamHandlers{}
	})
}

// A reply that arrives at the very instant the timeout is due loses to it
// (the timer was armed first) and one nanosecond earlier beats it; either
// way the request is counted exactly once and nothing is left behind.
func TestReplyRacingTheTimeoutIsCountedOnce(t *testing.T) {
	for _, tc := range []struct {
		name    string
		early   time.Duration
		success bool
	}{
		{"same instant", 0, false},
		{"one nanosecond earlier", time.Nanosecond, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, net, gen, rec := setup(t, 1, []cnet.NodeID{0})
			var srv cnet.Conn
			heldServer(net, 0, &srv)
			gen.launch()
			s.RunFor(time.Millisecond)
			if len(gen.reqLive) != 1 || srv == nil {
				t.Fatalf("request not established: %d live", len(gen.reqLive))
			}
			d := gen.reqLive[0].dl[completeDL]
			if !d.listed {
				t.Fatal("complete timeout not armed")
			}
			due := d.at
			// 125 bytes serialize in exactly 1 µs on the default link.
			flight := time.Microsecond + simnet.PropDelay
			s.At(due-flight-tc.early, func() { srv.TrySend(&server.RespMsg{OK: true}, 125) })
			s.RunFor(10 * time.Second)

			if rec.Succeeded+rec.Failed != 1 {
				t.Fatalf("request counted %d times (ok %d, failed %d)", rec.Succeeded+rec.Failed, rec.Succeeded, rec.Failed)
			}
			if got := rec.Succeeded == 1; got != tc.success {
				t.Errorf("succeeded = %v, want %v", got, tc.success)
			}
			wantCancelled := uint64(0)
			if tc.success {
				wantCancelled = 1
			}
			if gen.completeCancelled != wantCancelled {
				t.Errorf("cancelled %d timeouts, want %d", gen.completeCancelled, wantCancelled)
			}
			checkIdle(t, s, gen)
		})
	}
}

// A snapshot taken mid-request carries the armed complete timeout at its
// exact kernel key, and the restored request can still cancel it.
func TestSnapshotRoundTripsArmedCompleteTimeout(t *testing.T) {
	build := func() (*sim.Sim, *simnet.Network, *Generator, *Recorder, *cnet.Conn) {
		s, net, gen, rec := setup(t, 1, []cnet.NodeID{0})
		srv := new(cnet.Conn)
		heldServer(net, 0, srv)
		return s, net, gen, rec, srv
	}
	newCtx := func() *snapio.Ctx {
		msgs := snapio.NewMsgCodec()
		server.RegisterMessages(msgs)
		return &snapio.Ctx{World: &snapio.World{Conns: snapio.NewRefTable(simnet.BlankConn), Owners: snapio.NewRefTable(nil), Msgs: msgs}}
	}

	s, net, gen, _, srv := build()
	gen.launch()
	s.RunFor(time.Millisecond)
	due := gen.reqLive[0].dl[completeDL]
	if !due.listed {
		t.Fatal("complete timeout not armed")
	}

	ctx := newCtx()
	ctx.Enc, ctx.Sim = new(snapio.Encoder), s
	ctx.CapturePending()
	net.SnapCore(ctx)
	gen.SnapState(ctx)
	ctx.Enc.U64(ctx.Conns.Ref(*srv))
	net.SnapPending(ctx)
	net.SnapConns(ctx)
	if un := ctx.Unclaimed(); len(un) != 0 {
		t.Fatalf("%d pending events unclaimed by the save", len(un))
	}
	now, seq, fired, maxQ, through := s.Counters()

	s2, net2, gen2, rec2, _ := build()
	ctx2 := newCtx()
	ctx2.Dec, ctx2.Sim = snapio.NewDecoder(ctx.Enc.Bytes()), s2
	net2.SnapCore(ctx2)
	gen2.SnapState(ctx2)
	srv2 := ctx2.Conns.Obj(ctx2.Dec.U64()).(cnet.Conn)
	net2.SnapPending(ctx2)
	net2.SnapConns(ctx2)
	s2.SetCounters(now, seq, fired, maxQ, through)

	if len(gen2.reqLive) != 1 {
		t.Fatalf("restored %d live requests, want 1", len(gen2.reqLive))
	}
	if got := gen2.reqLive[0].dl[completeDL]; !got.listed || got.at != due.at || got.seq != due.seq || listed(gen2, completeDL) != 1 {
		t.Fatalf("restored complete timeout at (%v, %d), listed %v, want (%v, %d)", got.at, got.seq, got.listed, due.at, due.seq)
	}
	srv2.TrySend(&server.RespMsg{OK: true}, 256)
	s2.RunFor(time.Millisecond)
	if rec2.Succeeded != 1 || gen2.completeCancelled != 1 {
		t.Errorf("restored request: succeeded %d, cancelled %d, want 1 and 1", rec2.Succeeded, gen2.completeCancelled)
	}
	checkIdle(t, s2, gen2)
}

// The request cycle — launch, connect, reply, cancel, recycle — reuses its
// record, its timers and its connection pair: nothing is allocated.
func TestSteadyStateRequestCycleAllocatesNothing(t *testing.T) {
	s := sim.New(7)
	net := simnet.New(s, simnet.DefaultConfig(), nil)
	rec := NewRecorder()
	gen := NewGenerator(s, net, 1000, Config{
		Rate: 1, Targets: []cnet.NodeID{0}, Catalog: trace.NewCatalog(100, 27*1024, 0.8),
	}, rec)
	echoServer(net, 0)
	cycle := func() {
		gen.launch()
		s.RunFor(500 * time.Microsecond) // a request takes 0.3 ms end to end
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Errorf("request cycle allocates %v objects", avg)
	}
	if rec.Succeeded != rec.Offered || len(gen.reqLive) != 0 {
		t.Errorf("succeeded %d of %d, %d records live", rec.Succeeded, rec.Offered, len(gen.reqLive))
	}
}

// A burst of requests far wider than the record free list may keep is
// served in full; the list holds at most its bound afterwards and the
// next burst is served the same.
func TestRequestFreeListForgetsABurst(t *testing.T) {
	const burst = 500
	s, net, gen, rec := setup(t, 1, []cnet.NodeID{0})
	echoServer(net, 0)
	for round := uint64(1); round <= 2; round++ {
		for i := 0; i < burst; i++ {
			gen.launch()
		}
		s.RunFor(time.Second)
		if rec.Succeeded != round*burst || len(gen.reqLive) != 0 {
			t.Fatalf("round %d: succeeded %d, %d records live", round, rec.Succeeded, len(gen.reqLive))
		}
		free := reflect.ValueOf(&gen.reqFree).Elem().Field(0).Len() // the pool's free list is its only field
		if free == 0 || free > 64 {
			t.Errorf("round %d: reqFree holds %d records after a %d-wide burst, want 1..64", round, free, burst)
		}
	}
}
