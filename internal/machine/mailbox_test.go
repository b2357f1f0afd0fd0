package machine

import (
	"math/rand"
	"testing"
	"time"

	"press/internal/cnet"
	"press/internal/simnet"
	"press/internal/snapio"
)

// mailboxLen reports p's backlog: its array from head on and its
// segments.
func mailboxLen(p *Proc) int {
	n := 0
	p.eachQueued(func(*call) { n++ })
	return n
}

// A backlog past the array continues in segments the machine takes back
// as they drain, so a process that builds a 1,000-entry backlog a second
// time allocates nothing for it: its array is kept and the segments come
// from the machine's pool, which holds no more than its bound.
func TestRecurringBacklogReusesSegments(t *testing.T) {
	const backlog = 1000
	w := newWorld()
	a := New(w.sim, w.net, 0, nil, w.log)
	b := New(w.sim, w.net, 1, nil, w.log)
	var envA *Env
	ran := 0
	a.AddProc("client", func(e *Env) { envA = e })
	srv := b.AddProc("server", func(e *Env) {
		e.BindDatagram("d", func(cnet.NodeID, cnet.Message) {
			if ran++; ran == 1 {
				e.Charge(time.Second) // the rest queue behind it
			}
		})
	})
	msg := cnet.Message(1)
	peak := 0
	cycle := func() {
		ran = 0
		for range backlog {
			// One datagram in flight at a time: its record comes back
			// before the next send takes one.
			envA.Send(1, cnet.ClassIntra, "d", msg, 10)
			w.sim.RunFor(100 * time.Microsecond)
			peak = max(peak, mailboxLen(srv))
		}
		w.sim.Run()
	}
	cycle()
	if ran != backlog || peak != backlog-1 {
		t.Fatalf("first backlog: %d handlers ran, at most %d entries queued; want %d and %d", ran, peak, backlog, backlog-1)
	}
	if avg := testing.AllocsPerRun(5, cycle); avg != 0 {
		t.Errorf("a recurring %d-entry backlog allocates %v objects", backlog, avg)
	}
	if ran != backlog || mailboxLen(srv) != 0 || srv.segs != nil {
		t.Errorf("last backlog: %d handlers ran, %d entries left, segments %v", ran, mailboxLen(srv), srv.segs != nil)
	}
	if n := poolLen(&b.segFree); n == 0 || n > 64 {
		t.Errorf("the machine keeps %d spare segments, want 1..64", n)
	}
}

// segWorld is one machine whose process "app" records each datagram entry
// it dispatches, checking it against the entries posted and not yet
// dispatched or dropped, in post order.
type segWorld struct {
	t      *testing.T
	w      *world
	m      *Machine
	queued []int // posted and still owed, oldest first
	charge time.Duration
	ran    int
}

func (sw *segWorld) start(e *Env) {
	e.BindDatagram("d", func(_ cnet.NodeID, m cnet.Message) {
		if len(sw.queued) == 0 || m.(int) != sw.queued[0] {
			sw.t.Fatalf("dispatched entry %v, want the oldest owed of %v", m, sw.queued[:min(len(sw.queued), 4)])
		}
		sw.queued = sw.queued[1:]
		sw.ran++
		e.Charge(sw.charge)
	})
}

func (sw *segWorld) proc() *Proc { return sw.m.Proc("app") }

// post queues n entries numbered from next through the mailbox.
func (sw *segWorld) post(next, n int) {
	p := sw.proc()
	for v := next; v < next+n; v++ {
		if p.alive {
			sw.queued = append(sw.queued, v)
		}
		p.postCall(call{tag: tagDgram, env: p.env, arg: v})
	}
}

// intCodec moves the test's int messages.
func intCodec() *snapio.MsgCodec {
	c := snapio.NewMsgCodec()
	c.Register("int", 0, func(x *snapio.Ctx, m any) any {
		v, _ := m.(int)
		snapio.Int(x, &v)
		return v
	})
	return c
}

// roundTrip captures the machine and the kernel's counters and carries on
// in a fresh world restored from them.
func (sw *segWorld) roundTrip() {
	newCtx := func(w *world) *snapio.Ctx {
		return &snapio.Ctx{World: &snapio.World{Sim: w.sim, Conns: snapio.NewRefTable(simnet.BlankConn), Owners: snapio.NewRefTable(nil), Msgs: intCodec()}}
	}
	x := newCtx(sw.w)
	x.Enc = new(snapio.Encoder)
	x.CapturePending()
	sw.m.SnapState(x)
	sw.m.SnapOwners(x)
	if left := x.Unclaimed(); len(left) != 0 {
		sw.t.Fatalf("%d pending events no walk claimed", len(left))
	}

	w2 := newWorld()
	w2.sim.SetCounters(sw.w.sim.Counters())
	m2 := New(w2.sim, w2.net, sw.m.ID(), nil, w2.log)
	m2.AddProcCold("app", sw.start)
	y := newCtx(w2)
	y.Dec = snapio.NewDecoder(x.Enc.Bytes())
	m2.SnapState(y)
	if e := m2.RestoreEnv("app"); e != nil {
		sw.start(e)
	}
	m2.SnapOwners(y)
	m2.FinishRestore()
	sw.w, sw.m = w2, m2
}

// The segmented mailbox dispatches in post order across its array and
// segment boundaries, whatever happens between posts: charges that let a
// backlog build, hangs and stalls that stop the process with entries
// queued, a kill that drops them, and a snapshot round trip that carries
// them to a restored world.
func TestSegmentedMailboxKeepsPostOrder(t *testing.T) {
	var segmented, carried, dropped int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sw := &segWorld{t: t, w: newWorld(), charge: 50 * time.Microsecond}
		sw.m = New(sw.w.sim, sw.w.net, 0, nil, sw.w.log)
		sw.m.AddProc("app", sw.start)
		next := 0
		for range 60 {
			p := sw.proc()
			if p.segs != nil {
				segmented++
			}
			switch op := rng.Intn(10); {
			case op < 4:
				n := 1 + rng.Intn(300)
				sw.post(next, n)
				next += n
			case op < 6:
				sw.w.sim.RunFor(time.Duration(rng.Intn(5000)) * time.Microsecond)
			case op == 6:
				if p.Hung() {
					p.Unhang()
				} else {
					p.Hang()
				}
			case op == 7:
				if e := p.Env(); e != nil && p.Stalled() {
					e.Resume()
				} else if e != nil {
					e.Stall()
				}
			case op == 8:
				if p.Alive() {
					if len(sw.queued) > 0 {
						dropped++
					}
					sw.m.KillProc("app")
					sw.queued = nil
				} else {
					sw.m.StartProc("app")
				}
			default:
				if p.segs != nil {
					carried++
				}
				sw.roundTrip()
			}
		}
		p := sw.proc()
		if !p.Alive() {
			sw.m.StartProc("app")
		}
		if p.Hung() {
			p.Unhang()
		}
		if p.Stalled() {
			p.Env().Resume()
		}
		sw.w.sim.Run()
		if len(sw.queued) != 0 || mailboxLen(p) != 0 || p.segs != nil || p.tail != nil {
			t.Fatalf("seed %d: %d entries owed, %d queued, segments left %v", seed, len(sw.queued), mailboxLen(p), p.segs != nil)
		}
		if n := poolLen(&sw.m.segFree); n > 64 {
			t.Fatalf("seed %d: the machine keeps %d spare segments, bound 64", seed, n)
		}
	}
	// The cases the property is about must have come up.
	if segmented < 50 || carried < 5 || dropped < 5 {
		t.Errorf("ops on a segmented mailbox %d, round trips carrying segments %d, kills dropping a backlog %d: want at least 50, 5, 5", segmented, carried, dropped)
	}
}
