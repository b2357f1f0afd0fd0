package machine

import (
	"errors"
	"testing"
	"time"

	"press/internal/cnet"
	"press/internal/metrics"
	"press/internal/sim"
	"press/internal/simnet"
)

type world struct {
	sim *sim.Sim
	net *simnet.Network
	log *metrics.Log
}

func newWorld() *world {
	s := sim.New(1)
	log := &metrics.Log{}
	return &world{sim: s, net: simnet.New(s, simnet.DefaultConfig(), log), log: log}
}

func TestProcStartsImmediately(t *testing.T) {
	w := newWorld()
	m := New(w.sim, w.net, 0, nil, w.log)
	started := 0
	m.AddProc("app", func(env *Env) { started++ })
	if started != 1 {
		t.Fatalf("started = %d", started)
	}
}

func TestChargeSerializesWork(t *testing.T) {
	w := newWorld()
	m := New(w.sim, w.net, 0, nil, w.log)
	var done []time.Duration
	m.AddProc("app", func(env *Env) {
		// Two timers at t=0; each handler charges 10ms of CPU. The second
		// must therefore complete its (zero-length) work 10ms after the
		// first started.
		for i := 0; i < 2; i++ {
			env.Clock().AfterFunc(0, func() {
				env.Charge(10 * time.Millisecond)
				done = append(done, w.sim.Now())
			})
		}
	})
	w.sim.Run()
	if len(done) != 2 {
		t.Fatalf("done = %v", done)
	}
	if gap := done[1] - done[0]; gap != 10*time.Millisecond {
		t.Fatalf("second handler ran %v after first, want 10ms", gap)
	}
}

func TestTimerDiesWithProc(t *testing.T) {
	w := newWorld()
	m := New(w.sim, w.net, 0, nil, w.log)
	fired := 0
	m.AddProc("app", func(env *Env) {
		env.Clock().AfterFunc(time.Second, func() { fired++ })
	})
	m.KillProc("app")
	w.sim.RunFor(5 * time.Second)
	if fired != 0 {
		t.Fatal("timer of dead process fired")
	}
}

func TestRestartGetsFreshIncarnation(t *testing.T) {
	w := newWorld()
	m := New(w.sim, w.net, 0, nil, w.log)
	boots := 0
	var lastEnv *Env
	m.AddProc("app", func(env *Env) { boots++; lastEnv = env })
	first := lastEnv
	m.KillProc("app")
	m.StartProc("app")
	if boots != 2 {
		t.Fatalf("boots = %d", boots)
	}
	if lastEnv == first {
		t.Fatal("restart reused the old Env")
	}
	// Stale env must be inert.
	fired := false
	first.Clock().AfterFunc(0, func() { fired = true })
	w.sim.Run()
	if fired {
		t.Fatal("stale incarnation scheduled a live timer")
	}
}

func TestHangDefersTimersAndBacklog(t *testing.T) {
	w := newWorld()
	m := New(w.sim, w.net, 0, nil, w.log)
	var ticks []time.Duration
	var env *Env
	m.AddProc("app", func(e *Env) {
		env = e
		var tick func()
		tick = func() {
			ticks = append(ticks, w.sim.Now())
			e.Clock().AfterFunc(time.Second, tick)
		}
		e.Clock().AfterFunc(time.Second, tick)
	})
	w.sim.RunFor(2500 * time.Millisecond) // ticks at 1s, 2s
	m.Proc("app").Hang()
	w.sim.RunFor(5 * time.Second) // hang until 7.5s
	if len(ticks) != 2 {
		t.Fatalf("ticks during hang: %v", ticks)
	}
	m.Proc("app").Unhang()
	w.sim.RunFor(100 * time.Millisecond)
	// The 3s tick was deferred and fires on resume.
	if len(ticks) != 3 || ticks[2] < 7500*time.Millisecond {
		t.Fatalf("post-hang ticks: %v", ticks)
	}
	_ = env
}

func TestStallResume(t *testing.T) {
	w := newWorld()
	m := New(w.sim, w.net, 0, nil, w.log)
	var env *Env
	ran := 0
	m.AddProc("app", func(e *Env) { env = e })
	env.Stall()
	env.Clock().AfterFunc(time.Millisecond, func() { ran++ })
	w.sim.RunFor(time.Second)
	if ran != 0 {
		t.Fatal("stalled process ran a handler")
	}
	env.Resume()
	w.sim.Run()
	if ran != 1 {
		t.Fatal("backlog not drained after Resume")
	}
}

func TestDatagramsDropWhileHung(t *testing.T) {
	w := newWorld()
	a := New(w.sim, w.net, 0, nil, w.log)
	b := New(w.sim, w.net, 1, nil, w.log)
	got := 0
	var envA *Env
	a.AddProc("sender", func(e *Env) { envA = e })
	b.AddProc("app", func(e *Env) {
		e.BindDatagram("hb", func(cnet.NodeID, cnet.Message) { got++ })
	})
	envA.Send(1, cnet.ClassIntra, "hb", "x", 0)
	w.sim.Run()
	if got != 1 {
		t.Fatalf("baseline delivery failed, got %d", got)
	}
	b.Proc("app").Hang()
	envA.Send(1, cnet.ClassIntra, "hb", "y", 0)
	w.sim.Run()
	b.Proc("app").Unhang()
	w.sim.Run()
	if got != 1 {
		t.Fatalf("datagram to hung proc was delivered (got=%d)", got)
	}
}

func TestAppCrashResetsConnsNodeCrashDoesNot(t *testing.T) {
	w := newWorld()
	a := New(w.sim, w.net, 0, nil, w.log)
	b := New(w.sim, w.net, 1, nil, w.log)
	var closeErr error
	closes := 0
	var envA *Env
	a.AddProc("client", func(e *Env) { envA = e })
	b.AddProc("server", func(e *Env) {
		e.Listen("press", func(c cnet.Conn) cnet.StreamHandlers { return cnet.StreamHandlers{} })
	})
	envA.Dial(1, cnet.ClassIntra, "press", cnet.StreamHandlers{
		OnClose: func(c cnet.Conn, err error) { closeErr = err; closes++ },
	}, func(c cnet.Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
		}
	})
	w.sim.Run()
	b.KillProc("server")
	w.sim.Run()
	if closes != 1 || !errors.Is(closeErr, cnet.ErrReset) {
		t.Fatalf("app crash: closes=%d err=%v, want immediate RST", closes, closeErr)
	}
}

func TestMachineCrashSilence(t *testing.T) {
	w := newWorld()
	a := New(w.sim, w.net, 0, nil, w.log)
	b := New(w.sim, w.net, 1, nil, w.log)
	closes := 0
	var envA *Env
	a.AddProc("client", func(e *Env) { envA = e })
	b.AddProc("server", func(e *Env) {
		e.Listen("press", func(c cnet.Conn) cnet.StreamHandlers { return cnet.StreamHandlers{} })
	})
	envA.Dial(1, cnet.ClassIntra, "press", cnet.StreamHandlers{
		OnClose: func(c cnet.Conn, err error) { closes++ },
	}, func(c cnet.Conn, err error) {})
	w.sim.Run()
	b.Crash()
	w.sim.RunFor(30 * time.Second)
	if closes != 0 {
		t.Fatal("peer learned of machine crash before reboot")
	}
	b.Restart()
	w.sim.Run()
	if closes != 1 {
		t.Fatalf("closes after reboot = %d, want 1 (RST)", closes)
	}
}

func TestMachineRestartRebootsAllProcs(t *testing.T) {
	w := newWorld()
	m := New(w.sim, w.net, 0, nil, w.log)
	boots := map[string]int{}
	m.AddProc("app", func(e *Env) { boots["app"]++ })
	m.AddProc("membd", func(e *Env) { boots["membd"]++ })
	m.Crash()
	m.Restart()
	if boots["app"] != 2 || boots["membd"] != 2 {
		t.Fatalf("boots = %v", boots)
	}
}

func TestFreezeDefersEverything(t *testing.T) {
	w := newWorld()
	m := New(w.sim, w.net, 0, nil, w.log)
	var ticks []time.Duration
	m.AddProc("app", func(e *Env) {
		e.Clock().AfterFunc(time.Second, func() { ticks = append(ticks, w.sim.Now()) })
	})
	m.Freeze()
	w.sim.RunFor(10 * time.Second)
	if len(ticks) != 0 {
		t.Fatal("frozen machine ran a timer")
	}
	m.Unfreeze()
	w.sim.Run()
	if len(ticks) != 1 || ticks[0] < 10*time.Second {
		t.Fatalf("ticks after unfreeze: %v", ticks)
	}
}

func TestHungServerStillAcceptsButDoesNotReply(t *testing.T) {
	// The FME HTTP probe scenario, end to end through the proc layer.
	w := newWorld()
	a := New(w.sim, w.net, 0, nil, w.log)
	b := New(w.sim, w.net, 1, nil, w.log)
	var envA *Env
	a.AddProc("probe", func(e *Env) { envA = e })
	replies := 0
	b.AddProc("server", func(e *Env) {
		e.Listen("http", func(c cnet.Conn) cnet.StreamHandlers {
			return cnet.StreamHandlers{OnMessage: func(c cnet.Conn, m cnet.Message) {
				c.TrySend("200 OK", 64)
			}}
		})
	})
	b.Proc("server").Hang()
	var conn cnet.Conn
	envA.Dial(1, cnet.ClassClient, "http", cnet.StreamHandlers{
		OnMessage: func(c cnet.Conn, m cnet.Message) { replies++ },
	}, func(c cnet.Conn, err error) {
		if err != nil {
			t.Errorf("dial to hung server must succeed (TCP backlog), got %v", err)
			return
		}
		conn = c
		c.TrySend("GET /probe", 64)
	})
	w.sim.RunFor(10 * time.Second)
	if replies != 0 {
		t.Fatal("hung server replied")
	}
	b.Proc("server").Unhang()
	w.sim.Run()
	if replies != 1 {
		t.Fatalf("replies after unhang = %d, want 1", replies)
	}
	_ = conn
}

func TestTakeOfflineLogsAndCrashes(t *testing.T) {
	w := newWorld()
	m := New(w.sim, w.net, 3, nil, w.log)
	m.AddProc("app", func(e *Env) {})
	m.TakeOffline("disk failure")
	if m.Up() {
		t.Fatal("machine still up after TakeOffline")
	}
	if _, ok := w.log.Query().Kind(metrics.KFMEAction).After(0).First(); !ok {
		t.Fatal("no FME action event logged")
	}
}

func TestDuplicateProcPanics(t *testing.T) {
	w := newWorld()
	m := New(w.sim, w.net, 0, nil, w.log)
	m.AddProc("app", func(e *Env) {})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate proc")
		}
	}()
	m.AddProc("app", func(e *Env) {})
}

func TestStallPausesStreamReads(t *testing.T) {
	w := newWorld()
	a := New(w.sim, w.net, 0, nil, w.log)
	b := New(w.sim, w.net, 1, nil, w.log)
	var envA, envB *Env
	got := 0
	a.AddProc("client", func(e *Env) { envA = e })
	b.AddProc("server", func(e *Env) {
		envB = e
		e.Listen("press", func(c cnet.Conn) cnet.StreamHandlers {
			return cnet.StreamHandlers{OnMessage: func(cnet.Conn, cnet.Message) { got++ }}
		})
	})
	var conn cnet.Conn
	envA.Dial(1, cnet.ClassIntra, "press", cnet.StreamHandlers{}, func(c cnet.Conn, err error) { conn = c })
	w.sim.Run()
	envB.Stall()
	conn.TrySend("x", 10)
	w.sim.RunFor(time.Second)
	if got != 0 {
		t.Fatal("stalled server consumed a stream message")
	}
	envB.Resume()
	w.sim.Run()
	if got != 1 {
		t.Fatalf("got = %d after resume", got)
	}
}

// TestShedAtAcceptIsNeverTracked pins the dead-conn leak behind the chaos
// campaign panic: a listener that sheds inside accept closes the dialer
// half before the dial result is delivered, so the dialing process must
// not keep it — the pair is recycled as soon as the handshake ends, and a
// stale entry would later pause whoever owns the reused pair (or
// dereference a zeroed half).
func TestShedAtAcceptIsNeverTracked(t *testing.T) {
	w := newWorld()
	a := New(w.sim, w.net, 0, nil, w.log)
	b := New(w.sim, w.net, 1, nil, w.log)
	c := New(w.sim, w.net, 2, nil, w.log)
	var envA, envC *Env
	a.AddProc("dialer", func(e *Env) { envA = e })
	c.AddProc("bystander", func(e *Env) { envC = e })
	var kept cnet.Conn
	b.AddProc("server", func(e *Env) {
		e.Listen("shed", func(conn cnet.Conn) cnet.StreamHandlers {
			conn.Close()
			return cnet.StreamHandlers{}
		})
		e.Listen("keep", func(conn cnet.Conn) cnet.StreamHandlers {
			kept = conn
			return cnet.StreamHandlers{}
		})
	})

	const dials = 8
	results := 0
	for i := 0; i < dials; i++ {
		envA.Dial(1, cnet.ClassIntra, "shed", cnet.StreamHandlers{}, func(conn cnet.Conn, err error) {
			if conn == nil || err != nil {
				t.Errorf("shed dial: conn=%v err=%v, want a (closed) conn and no error", conn, err)
			}
			results++
		})
	}
	w.sim.Run()
	if results != dials {
		t.Fatalf("dial results = %d, want %d", results, dials)
	}
	if n := len(a.Proc("dialer").conns); n != 0 {
		t.Fatalf("dialer tracks %d conns after every dial was shed, want 0", n)
	}

	// The bystander's dial reuses one of the recycled pairs.
	got := 0
	envC.Dial(1, cnet.ClassIntra, "keep", cnet.StreamHandlers{
		OnMessage: func(cnet.Conn, cnet.Message) { got++ },
	}, func(cnet.Conn, error) {})
	w.sim.Run()

	a.Proc("dialer").Hang()
	kept.TrySend("x", 10)
	w.sim.Run()
	if got != 1 {
		t.Fatalf("bystander received %d messages while the dialer hung, want 1: its conn was paused by another process", got)
	}
	a.Proc("dialer").Unhang()
	envA.Stall()
	envA.Resume()
	w.sim.Run()
	if n := len(a.Proc("dialer").conns); n != 0 {
		t.Fatalf("dialer tracks %d conns, want 0", n)
	}
}

// A charge's end belongs to the incarnation that charged it. An operator
// reset kills and restarts a process in one instant; when that lands
// mid-charge, the dead incarnation's charge end must not end the new
// incarnation's charge. (With one resume record per process, re-stamped
// by every charge, the old end did: the handler below ran at 11 ms,
// behind a 20 ms charge that started at 2 ms.)
func TestDeadIncarnationsChargeEndDoesNotCutTheNextShort(t *testing.T) {
	w := newWorld()
	m := New(w.sim, w.net, 0, nil, w.log)
	boots := 0
	var ran time.Duration
	m.AddProc("app", func(env *Env) {
		boots++
		if boots == 1 {
			// A 10 ms charge from 1 ms, with work queued behind it.
			env.Clock().AfterFunc(time.Millisecond, func() { env.Charge(10 * time.Millisecond) })
			env.Clock().AfterFunc(time.Millisecond, func() {})
			return
		}
		env.Clock().AfterFunc(500*time.Microsecond, func() { env.Charge(20 * time.Millisecond) })
		env.Clock().AfterFunc(time.Millisecond, func() { ran = w.sim.Now() })
	})
	w.sim.At(1500*time.Microsecond, func() {
		m.KillProc("app")
		m.StartProc("app")
	})
	w.sim.Run()
	if want := 22 * time.Millisecond; ran != want {
		t.Fatalf("handler queued behind the new incarnation's charge ran at %v, want %v", ran, want)
	}
}
