package machine

import (
	"reflect"
	"testing"
	"time"
	"unsafe"

	"press/internal/cnet"
	"press/internal/simnet"
)

// poolLen reads how many spare records a cnet.MsgPool holds (its free
// list is its only field).
func poolLen(pool any) int { return reflect.ValueOf(pool).Elem().Field(0).Len() }

// A dial-and-timer storm far wider than any free list may keep runs to
// completion, leaves the dial records' free list (the network's: a dial is
// one record from DialFor to its dispatch) at or under its bound (timer
// records are handles, and never pooled), and a second identical storm
// behaves the same.
func TestFreeListsForgetAStorm(t *testing.T) {
	const storm = 300
	w := newWorld()
	a := New(w.sim, w.net, 0, nil, w.log)
	b := New(w.sim, w.net, 1, nil, w.log)
	var envA *Env
	var echoed, closed, fired int
	a.AddProc("client", func(e *Env) { envA = e })
	b.AddProc("server", func(e *Env) {
		e.Listen("s", func(cnet.Conn) cnet.StreamHandlers {
			return cnet.StreamHandlers{
				OnMessage: func(c cnet.Conn, m cnet.Message) { c.TrySend(m, 10) },
				OnClose:   func(cnet.Conn, error) { closed++ },
			}
		})
	})
	client := cnet.StreamHandlers{OnMessage: func(c cnet.Conn, m cnet.Message) {
		echoed++
		c.Close()
	}}
	run := func() [3]int {
		echoed, closed, fired = 0, 0, 0
		for i := 0; i < storm; i++ {
			envA.Clock().AfterFunc(time.Millisecond, func() { fired++ })
			envA.Dial(1, cnet.ClassIntra, "s", client, func(c cnet.Conn, err error) {
				if err != nil {
					t.Fatalf("dial: %v", err)
				}
				c.TrySend("ping", 10)
			})
		}
		w.sim.Run()
		return [3]int{echoed, closed, fired}
	}

	want := [3]int{storm, storm, storm}
	if got := run(); got != want {
		t.Fatalf("first storm: %v, want %v", got, want)
	}
	dialFree := func() int { return reflect.ValueOf(w.net).Elem().FieldByName("dialFree").Field(0).Len() }
	if got := dialFree(); got == 0 || got > 64 {
		t.Errorf("dialFree holds %d records after a %d-wide storm, want 1..64", got, storm)
	}
	if got := run(); got != want {
		t.Errorf("second storm: %v, want %v", got, want)
	}
	if got := dialFree(); got > 64 {
		t.Errorf("dialFree holds %d records after the second storm", got)
	}
	if n := len(a.Proc("client").conns) + len(b.Proc("server").conns) + len(a.dials); n != 0 {
		t.Errorf("%d conns or dials still tracked", n)
	}
}

// Stall and Resume walk a snapshot of the conn list; the snapshot's
// storage belongs to the process and is reused, so a server that blocks
// on its disk queue thousands of times a second allocates nothing for it.
func TestStallResumeAllocatesNothing(t *testing.T) {
	const conns = 1000
	w := newWorld()
	a := New(w.sim, w.net, 0, nil, w.log)
	b := New(w.sim, w.net, 1, nil, w.log)
	var envA, envB *Env
	a.AddProc("client", func(e *Env) { envA = e })
	b.AddProc("server", func(e *Env) {
		envB = e
		e.Listen("s", func(cnet.Conn) cnet.StreamHandlers { return cnet.StreamHandlers{} })
	})
	for i := 0; i < conns; i++ {
		envA.Dial(1, cnet.ClassIntra, "s", cnet.StreamHandlers{}, func(cnet.Conn, error) {})
	}
	w.sim.Run()
	if n := len(b.Proc("server").conns); n != conns {
		t.Fatalf("server holds %d conns, want %d", n, conns)
	}
	cycle := func() {
		envB.Stall()
		envB.Resume()
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("Stall+Resume over %d conns allocates %v objects", conns, avg)
	}
}

// A handler drained by Resume may stall the process again: the nested
// pause walk must not disturb the outer one, which still visits every
// connection of its snapshot, in order, exactly once.
func TestNestedStallDuringResumeDrain(t *testing.T) {
	const conns = 8
	w := newWorld()
	a := New(w.sim, w.net, 0, nil, w.log)
	b := New(w.sim, w.net, 1, nil, w.log)
	var envA, envB *Env
	var got []cnet.Message
	a.AddProc("client", func(e *Env) { envA = e })
	b.AddProc("server", func(e *Env) {
		envB = e
		e.Listen("s", func(cnet.Conn) cnet.StreamHandlers {
			return cnet.StreamHandlers{OnMessage: func(_ cnet.Conn, m cnet.Message) {
				got = append(got, m)
				if m == 2 {
					e.Stall() // re-enters syncConnPause inside Resume's drain
				}
			}}
		})
	})
	var cs []cnet.Conn
	for i := 0; i < conns; i++ {
		envA.Dial(1, cnet.ClassIntra, "s", cnet.StreamHandlers{}, func(c cnet.Conn, err error) { cs = append(cs, c) })
	}
	w.sim.Run()
	envB.Stall()
	for i, c := range cs {
		c.TrySend(i, 10)
	}
	w.sim.Run()
	if len(got) != 0 {
		t.Fatalf("stalled server read %v", got)
	}
	envB.Resume() // drains conns 0,1,2; message 2 stalls again
	w.sim.Run()
	if len(got) != 3 {
		t.Fatalf("after the re-stall the server read %v, want messages 0..2", got)
	}
	srv := b.Proc("server")
	if !srv.Stalled() || len(srv.pauseScratch) != 0 {
		t.Fatalf("stalled=%v, scratch holds %d entries between events", srv.Stalled(), len(srv.pauseScratch))
	}
	envB.Resume()
	w.sim.Run()
	for i := 0; i < conns; i++ {
		if i >= len(got) || got[i] != i {
			t.Fatalf("server read %v, want 0..%d in order", got, conns-1)
		}
	}
}

// A mailbox entry is copied by value at packet rate (postCall, pump), and
// a backlog keeps its storage, so its size is pinned below one cache line.
// An entry carries no handler — stream, close and writable entries read
// theirs from the connection end, a datagram entry names its port's by
// index — its end is a concrete pointer, an error travels as its code,
// and a timer or dial record shares the message's field.
func TestMailboxEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(call{}); got > 48 {
		t.Errorf("call is %d bytes, want at most 48", got)
	}
	// A segment and the allocator's 8-byte header fill the 3 KB class.
	if got := unsafe.Sizeof(mailSeg{}); got > 3072-8 {
		t.Errorf("a mailbox segment is %d bytes, want at most %d", got, 3072-8)
	}
}

// A process lists its ends by concrete pointer, 8 bytes a slot: at N=256
// the servers' lists hold 130,560 ends, and an interface value would
// take twice that.
func TestProcListsEndsByPointer(t *testing.T) {
	want := reflect.TypeOf([]*simnet.End(nil))
	for _, name := range []string{"conns", "pauseScratch"} {
		if f, _ := reflect.TypeOf(Proc{}).FieldByName(name); f.Type != want {
			t.Errorf("Proc.%s is %v, want %v", name, f.Type, want)
		}
	}
}

// A post to an idle process — alive, runnable, no charge elapsing,
// nothing queued — runs its handler at once and stores nothing, so a
// cluster's quiet processes own no mailbox storage. A process whose
// handler charged CPU still queues what arrives meanwhile, and runs it in
// arrival order once the charge has elapsed.
func TestIdleProcessStoresNoEntry(t *testing.T) {
	w := newWorld()
	a := New(w.sim, w.net, 0, nil, w.log)
	b := New(w.sim, w.net, 1, nil, w.log)
	var envA *Env
	var got []cnet.Message
	var at []time.Duration
	charge := time.Duration(0)
	a.AddProc("client", func(e *Env) { envA = e })
	srv := b.AddProc("server", func(e *Env) {
		e.BindDatagram("d", func(_ cnet.NodeID, m cnet.Message) {
			got = append(got, m)
			at = append(at, w.sim.Now())
			e.Charge(charge)
		})
	})
	for i := 0; i < 3; i++ {
		envA.Send(1, cnet.ClassIntra, "d", i, 10)
		w.sim.Run()
		if len(got) != i+1 || cap(srv.mailbox) != 0 {
			t.Fatalf("idle post %d: handler ran %d times, mailbox capacity %d", i, len(got), cap(srv.mailbox))
		}
	}

	got, at = nil, nil
	charge = time.Millisecond
	for i := 0; i < 3; i++ {
		envA.Send(1, cnet.ClassIntra, "d", i, 10) // back to back: the later two arrive while the first's charge elapses
	}
	var queued int
	for w.sim.Step() {
		if n := mailboxLen(srv); n > queued {
			queued = n
		}
	}
	if queued != 2 {
		t.Errorf("at most %d entries queued behind the charged handler, want 2", queued)
	}
	for i := range got {
		if got[i] != i || (i > 0 && at[i]-at[i-1] != charge) {
			t.Fatalf("charged process ran %v at %v, want 0, 1, 2 one charge apart", got, at)
		}
	}
	if len(got) != 3 {
		t.Fatalf("charged process ran %v, want 0, 1, 2", got)
	}
}

// A backlog far past mailboxKeep — a boot storm's, one datagram per peer
// — runs in arrival order, continuing past the full array in segments,
// and once it drains the process holds no array larger than mailboxKeep
// entries and no segment: the storm's high-water is not kept for the
// process's life. The array is kept for the next backlog.
func TestDrainedMailboxDropsAStormsArray(t *testing.T) {
	const storm = 1000
	w := newWorld()
	a := New(w.sim, w.net, 0, nil, w.log)
	b := New(w.sim, w.net, 1, nil, w.log)
	var envA *Env
	var got []cnet.Message
	a.AddProc("client", func(e *Env) { envA = e })
	srv := b.AddProc("server", func(e *Env) {
		e.BindDatagram("d", func(_ cnet.NodeID, m cnet.Message) {
			got = append(got, m)
			e.Charge(time.Millisecond) // what arrives meanwhile queues
		})
	})
	burst := func(n int) (queued int) {
		got = got[:0]
		for i := 0; i < n; i++ {
			envA.Send(1, cnet.ClassIntra, "d", i, 10)
		}
		for w.sim.Step() {
			queued = max(queued, mailboxLen(srv))
		}
		for i := range got {
			if got[i] != i {
				t.Fatalf("a %d-entry backlog ran %v..., want 0..%d in order", n, got[:i+1], n-1)
			}
		}
		if len(got) != n {
			t.Fatalf("a %d-entry backlog ran %d handlers", n, len(got))
		}
		return queued
	}
	if q := burst(storm); q < storm-1 {
		t.Fatalf("at most %d entries queued, want a %d-entry backlog", q, storm-1)
	}
	if c := cap(srv.mailbox); c > mailboxKeep || srv.segs != nil {
		t.Errorf("after a %d-entry backlog drained the mailbox holds a %d-entry array and segments %v, want at most %d and none", storm, c, srv.segs != nil, mailboxKeep)
	}
	burst(mailboxKeep / 2)
	if c := cap(srv.mailbox); c == 0 || c > mailboxKeep {
		t.Errorf("after a %d-entry backlog drained the mailbox holds a %d-entry array, want it kept", mailboxKeep/2, c)
	}
}

// pingDialer is a component record that owns its dials, as the server's
// peers and the front-end's relays do: one record serves every dial.
type pingDialer struct{ h cnet.StreamHandlers }

func (d *pingDialer) DialHandlers() cnet.StreamHandlers { return d.h }
func (d *pingDialer) DialResult(c cnet.Conn, err error) { c.TrySend("ping", 10) }

// An adopted connection end costs the machine layer one slot in the
// owning process's conn list — the end itself is the record, with no
// wrapper, closure or hook object per connection — so a connection's
// whole life (dial, adopt on both sides, exchange, close, prune)
// allocates nothing once the pools and lists are warm. The dial is a DialFor on the owning record: the
// closure form, Dial, boxes its pair in a cnet.DialFuncs per call.
func TestConnectionLifeAllocatesNothing(t *testing.T) {
	w := newWorld()
	a := New(w.sim, w.net, 0, nil, w.log)
	b := New(w.sim, w.net, 1, nil, w.log)
	var envA *Env
	served := 0
	a.AddProc("client", func(e *Env) { envA = e })
	b.AddProc("server", func(e *Env) {
		h := cnet.StreamHandlers{OnMessage: func(c cnet.Conn, m cnet.Message) {
			served++
			c.TrySend(m, 10)
		}}
		e.Listen("s", func(cnet.Conn) cnet.StreamHandlers { return h })
	})
	client := &pingDialer{cnet.StreamHandlers{OnMessage: func(c cnet.Conn, m cnet.Message) { c.Close() }}}
	life := func() {
		for i := 0; i < 4; i++ { // a few at once, so both conn lists hold several records
			envA.DialFor(1, cnet.ClassIntra, "s", client)
		}
		w.sim.Run()
	}
	life()
	if avg := testing.AllocsPerRun(200, life); avg != 0 {
		t.Errorf("four connection lives allocate %v objects", avg)
	}
	if served != 4*202 || len(a.Proc("client").conns)+len(b.Proc("server").conns) != 0 {
		t.Errorf("served %d, %d conns still tracked", served, len(a.Proc("client").conns)+len(b.Proc("server").conns))
	}
}

// hopper hops back to itself left more times.
type hopper struct {
	e     *Env
	left  int
	fired int
}

func (h *hopper) OnTimer() {
	h.fired++
	if h.left > 0 {
		h.left--
		h.e.Hop(h)
	}
}

// A hop (Env.Hop) has no handle, so its timer record goes back to the
// machine once it ran — a chain of hops allocates nothing once the pool is
// warm — and once a dead incarnation dropped it, from the kernel or from a
// hung process's mailbox.
func TestHopRecordsAreRecycled(t *testing.T) {
	w := newWorld()
	m := New(w.sim, w.net, 0, nil, w.log)
	var env *Env
	p := m.AddProc("app", func(e *Env) { env = e })
	h := &hopper{e: env}
	chain := func() {
		h.left = 16
		env.Hop(h)
		w.sim.Run()
	}
	chain()
	if avg := testing.AllocsPerRun(100, chain); avg != 0 {
		t.Errorf("a chain of 17 hops allocates %v objects", avg)
	}
	if h.fired != 17*102 || poolLen(&m.hopFree) != 1 {
		t.Fatalf("fired %d hops with %d spare records, want %d and 1", h.fired, poolLen(&m.hopFree), 17*102)
	}

	// Dropped in the kernel: armed, then the incarnation dies.
	fired := h.fired
	for range 8 {
		env.Hop(h)
	}
	m.KillProc("app")
	w.sim.Run()
	if h.fired != fired || poolLen(&m.hopFree) != 8 {
		t.Errorf("a dead incarnation's hops ran %d times and left %d spare records, want 0 and 8", h.fired-fired, poolLen(&m.hopFree))
	}

	// Dropped from the mailbox: fired into a hung process, which dies.
	m.StartProc("app")
	h.e = env
	p.Hang()
	for range 8 {
		env.Hop(h)
	}
	w.sim.Run()
	if mailboxLen(p) != 8 {
		t.Fatalf("a hung process queued %d hops, want 8", mailboxLen(p))
	}
	m.KillProc("app")
	if h.fired != fired || poolLen(&m.hopFree) != 8 {
		t.Errorf("a killed process's queued hops ran %d times and left %d spare records, want 0 and 8", h.fired-fired, poolLen(&m.hopFree))
	}
}
