package machine

import (
	"reflect"
	"testing"
	"time"

	"press/internal/cnet"
)

// poolLen reads how many spare records a cnet.MsgPool holds (its free
// list is its only field).
func poolLen(pool any) int { return reflect.ValueOf(pool).Elem().Field(0).Len() }

// A dial-and-timer storm far wider than any free list may keep runs to
// completion, leaves every machine-level list at or under its bound, and
// a second identical storm behaves the same.
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
	pools := []struct {
		name string
		pool any
	}{
		{"client wrapFree", &a.wrapFree},
		{"client dialFree", &a.dialFree},
		{"client closeFree", &a.closeFree},
		{"client timerFree", &a.timerFree},
		{"server wrapFree", &b.wrapFree},
		{"server closeFree", &b.closeFree},
	}
	for _, p := range pools {
		if got := poolLen(p.pool); got == 0 || got > 64 {
			t.Errorf("%s holds %d records after a %d-wide storm, want 1..64", p.name, got, storm)
		}
	}
	if got := run(); got != want {
		t.Errorf("second storm: %v, want %v", got, want)
	}
	for _, p := range pools {
		if got := poolLen(p.pool); got > 64 {
			t.Errorf("%s holds %d records after the second storm", p.name, got)
		}
	}
	if n := len(a.Proc("client").conns) + len(b.Proc("server").conns) + len(a.dials); n != 0 {
		t.Errorf("%d conns or dials still tracked", n)
	}
}
