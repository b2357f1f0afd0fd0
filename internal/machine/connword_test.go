package machine

import (
	"testing"
	"time"

	"press/internal/cnet"
)

// TestConnWordLastsUntilOnCloseHasRun: the word a component keeps with a
// connection is zero at first, holds what was written while the connection
// is open, stays readable and writable between the peer's close arriving
// and the component's OnClose running — a hung process sits in that state
// for as long as it hangs, off the conn list but still routed to it — is
// what OnClose reads, and is gone afterwards.
func TestConnWordLastsUntilOnCloseHasRun(t *testing.T) {
	w := newWorld()
	srv := New(w.sim, w.net, 0, nil, w.log)
	var env *Env
	var accepted []cnet.Conn
	var sawOnClose []uint64
	p := srv.AddProc("app", func(e *Env) {
		env = e
		e.Listen("svc", func(c cnet.Conn) cnet.StreamHandlers {
			accepted = append(accepted, c)
			return cnet.StreamHandlers{OnClose: func(c cnet.Conn, err error) {
				sawOnClose = append(sawOnClose, e.ConnWord(c))
			}}
		})
	})
	client := w.net.AddIface(9)
	var dialed []cnet.Conn
	for i := 0; i < 3; i++ {
		client.Dial(0, cnet.ClassClient, "svc", cnet.StreamHandlers{}, func(c cnet.Conn, err error) { dialed = append(dialed, c) })
		w.sim.RunFor(time.Millisecond)
	}
	if len(accepted) != 3 || len(dialed) != 3 {
		t.Fatalf("accepted %d, dialed %d", len(accepted), len(dialed))
	}
	for i, c := range accepted {
		if got := env.ConnWord(c); got != 0 {
			t.Fatalf("fresh conn %d carries %d", i, got)
		}
		env.SetConnWord(c, uint64(100+i))
	}

	// Close the first while the process runs: OnClose sees the word, and
	// then the connection is nobody's.
	dialed[0].Close()
	w.sim.RunFor(time.Millisecond)
	if len(sawOnClose) != 1 || sawOnClose[0] != 100 {
		t.Fatalf("OnClose read %v, want [100]", sawOnClose)
	}
	if got := env.ConnWord(accepted[0]); got != 0 {
		t.Fatalf("word of a connection whose OnClose has run: %d", got)
	}
	env.SetConnWord(accepted[0], 7) // nobody's: dropped
	if env.ConnWord(accepted[0]) != 0 || len(p.conns) != 2 || parked(p) != 0 {
		t.Fatalf("after close: word %d, %d conns, %d closing", env.ConnWord(accepted[0]), len(p.conns), parked(p))
	}

	// Close the other two under a hang: both closes wait in the mailbox.
	p.Hang()
	dialed[2].Close()
	dialed[1].Close()
	w.sim.RunFor(time.Millisecond)
	if len(p.conns) != 0 || parked(p) != 2 || len(sawOnClose) != 1 {
		t.Fatalf("hung: %d conns, %d closing, %d OnClose calls", len(p.conns), parked(p), len(sawOnClose))
	}
	if a, b := env.ConnWord(accepted[1]), env.ConnWord(accepted[2]); a != 101 || b != 102 {
		t.Fatalf("parked words %d, %d", a, b)
	}
	env.SetConnWord(accepted[1], 0) // a write to a parked connection lands too
	p.Unhang()
	w.sim.RunFor(time.Millisecond)
	if len(sawOnClose) != 3 || sawOnClose[1] != 102 || sawOnClose[2] != 0 {
		t.Fatalf("OnClose read %v, want [100 102 0]", sawOnClose)
	}
	if parked(p) != 0 {
		t.Fatalf("%d records still parked", parked(p))
	}

	// A restart forgets what the dead incarnation parked.
	client.Dial(0, cnet.ClassClient, "svc", cnet.StreamHandlers{}, func(c cnet.Conn, err error) { dialed = append(dialed, c) })
	w.sim.RunFor(time.Millisecond)
	env.SetConnWord(accepted[3], 55)
	p.Hang()
	dialed[3].Close()
	w.sim.RunFor(time.Millisecond)
	old := env
	srv.KillProc("app")
	srv.StartProc("app")
	if got := env.ConnWord(accepted[3]); got != 0 || old.ConnWord(accepted[3]) != 0 || parked(p) != 0 {
		t.Fatalf("after restart: new env reads %d, old env %d, %d parked", got, old.ConnWord(accepted[3]), parked(p))
	}
}

// parked counts the connection ends the peer closed whose OnClose still
// waits in the mailbox.
func parked(p *Proc) int {
	n := 0
	for _, c := range p.mailbox[p.head:] {
		if c.tag == tagClosed {
			n++
		}
	}
	return n
}
