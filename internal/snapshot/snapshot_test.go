package snapshot

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"press/internal/cnet"
	"press/internal/faults"
	"press/internal/harness"
	"press/internal/machine"
	"press/internal/server"
	"press/internal/snapio"
)

// fastOpts keeps the world small and pins the rate so Build never runs
// the saturation probe.
func fastOpts(seed int64) harness.Options {
	o := harness.FastOptions(seed)
	o.Rate = 100
	return o
}

// dump renders everything observable about a cluster's dynamic state.
func dump(c *harness.Cluster) string {
	now, seq, fired, maxQ, through := c.Sim.Counters()
	s := fmt.Sprintf("now=%v seq=%d fired=%d maxQ=%d through=%d\n", now, seq, fired, maxQ, through)
	s += fmt.Sprintf("offered=%d succeeded=%d failed=%d connfail=%d compfail=%d\n",
		c.Rec.Offered, c.Rec.Succeeded, c.Rec.Failed, c.Rec.ConnectFailures, c.Rec.CompleteFailures)
	s += "throughput:" + c.Rec.Throughput.CSV() + "\n"
	s += "offers:" + c.Rec.Offers.CSV() + "\n"
	s += "failures:" + c.Rec.Failures.CSV() + "\n"
	s += c.Log.Dump()
	return s
}

// TestPlainWorldRoundTrip warms a world of each shape the walks have to
// carry — plain: nothing drives it but its load, and no driver's state
// rides on the stream — snapshots it, and checks a restored world
// continues byte-identically to the uninterrupted original. The
// frontend-down case captures two seconds into a front-end crash,
// with the clients' requests to the dead machine in flight; the scalable
// cases carry gossip membership, the sharded directory and a two-machine
// front-end tier.
func TestPlainWorldRoundTrip(t *testing.T) {
	with := func(edit func(*harness.Options)) harness.Options {
		o := fastOpts(1)
		edit(&o)
		return o
	}
	crashFrontend := func(t *testing.T, c *harness.Cluster) {
		if _, err := c.Injector.Inject(faults.FrontendFailure, 0); err != nil {
			t.Fatal(err)
		}
		c.Sim.RunFor(2 * time.Second)
	}
	for _, tc := range []struct {
		name   string
		v      harness.Version
		o      harness.Options
		before func(*testing.T, *harness.Cluster) // after the warm-up, before the capture
	}{
		{"INDEP", harness.VINDEP, fastOpts(1), nil},
		{"COOP", harness.VCOOP, fastOpts(1), nil},
		{"FME", harness.VFME, fastOpts(1), nil},
		{"C-MON/frontend-down", harness.VCMON, fastOpts(1), crashFrontend},
		{"COOP/scalable", harness.VCOOP, with(func(o *harness.Options) { o.Protocol, o.Nodes = harness.Scalable, 8 }), nil},
		{"FME/scalable/two-frontends", harness.VFME, with(func(o *harness.Options) {
			o.Protocol, o.Nodes, o.Rate = harness.Scalable, 34, 400
		}), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			v, o := tc.v, tc.o
			c := harness.NewEngine(0).Build(v, o)
			c.Gen.Start()
			c.Sim.RunUntil(o.Warmup)
			if tc.before != nil {
				tc.before(t, c)
			}

			snap, err := harness.Take(c, nil)
			if err != nil {
				t.Fatalf("Take: %v", err)
			}

			// A second capture of the same moment must be byte-identical
			// (taking a snapshot does not perturb the world).
			again, err := harness.Take(c, nil)
			if err != nil {
				t.Fatalf("second Take: %v", err)
			}
			if snap.Hash() != again.Hash() {
				t.Fatalf("re-capture changed hash: %s vs %s", snap.Hash(), again.Hash())
			}

			horizon := o.Warmup + time.Minute
			c.Sim.RunUntil(horizon)
			want := dump(c)

			r, err := snap.Restore(nil)
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if r.Sim.Now() != snap.At {
				t.Fatalf("restored at %v, snapshot taken at %v", r.Sim.Now(), snap.At)
			}
			r.Sim.RunUntil(horizon)
			got := dump(r)
			if got != want {
				t.Fatalf("restored world diverged from original\n--- original ---\n%s\n--- restored ---\n%s",
					tail(want, 2000), tail(got, 2000))
			}
		})
	}
}

func tail(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return "..." + s[len(s)-n:]
}

// TestLoadRoundTrip serializes a snapshot through Load and checks the
// envelope and content address survive.
func TestLoadRoundTrip(t *testing.T) {
	o := fastOpts(2)
	c := harness.NewEngine(0).Build(harness.VCOOP, o)
	c.Gen.Start()
	c.Sim.RunUntil(30 * time.Second)
	snap, err := harness.Take(c, nil)
	if err != nil {
		t.Fatalf("Take: %v", err)
	}
	re, err := harness.Load(snap.Bytes())
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if re.Hash() != snap.Hash() {
		t.Fatalf("hash changed across Load: %s vs %s", re.Hash(), snap.Hash())
	}
	if re.Version != snap.Version || re.Rate != snap.Rate || re.At != snap.At || re.Opts != snap.Opts {
		t.Fatalf("envelope changed across Load: %+v vs %+v", re, snap)
	}
	if _, err := harness.Load(snap.Bytes()[:8]); err == nil {
		t.Fatalf("Load accepted a truncated blob")
	}
}

// TestForkIndependence restores a warm snapshot twice and checks the
// forks are fully independent worlds that evolve identically from
// identical state.
func TestForkIndependence(t *testing.T) {
	o := fastOpts(3)
	c := harness.NewEngine(0).Build(harness.VCOOP, o)
	c.Gen.Start()
	c.Sim.RunUntil(time.Minute)
	snap, err := harness.Take(c, nil)
	if err != nil {
		t.Fatalf("Take: %v", err)
	}
	dumps := make([]string, 2)
	for i := range dumps {
		fc, err := snap.Restore(nil)
		if err != nil {
			t.Fatalf("Restore %d: %v", i, err)
		}
		fc.Sim.RunUntil(2 * time.Minute)
		dumps[i] = dump(fc)
	}
	if dumps[0] != dumps[1] {
		t.Fatalf("forks of the same snapshot diverged")
	}
}

// TestClosureAdaptorRefusesCapture: a continuation handed over as a closure
// (Array.Read, the Dial of the network and of a process, a process clock's
// AfterFunc and a kernel event armed with Sim.After — the forms with no
// owner record) is described by no section, so a capture taken while it
// is outstanding fails with a typed error naming what it found: the
// unregistered owner, or the kernel closure's own function; the closure
// still runs, and the world captures again once it has.
func TestClosureAdaptorRefusesCapture(t *testing.T) {
	dialed := func(done func()) func(cnet.Conn, error) {
		return func(conn cnet.Conn, err error) {
			if err == nil {
				conn.Close()
			}
			done()
		}
	}
	for _, tc := range []struct {
		name, owner string // owner is "" for a kernel closure, which the refusal names by its function
		submit      func(c *harness.Cluster, done func())
	}{
		{"Array.Read", "simdisk.readFunc", func(c *harness.Cluster, done func()) {
			if !c.Machines[0].Disks().Read(0, func(bool) { done() }) {
				t.Fatal("the read was refused")
			}
		}},
		{"Iface.Dial", "*cnet.DialFuncs", func(c *harness.Cluster, done func()) {
			c.Machines[0].Iface().Dial(c.Machines[1].ID(), cnet.ClassClient, server.PortHTTP, cnet.StreamHandlers{}, dialed(done))
		}},
		{"Env.Dial", "*cnet.DialFuncs", func(c *harness.Cluster, done func()) {
			c.Machines[0].Proc("press").Env().Dial(c.Machines[1].ID(), cnet.ClassClient, server.PortHTTP, cnet.StreamHandlers{}, dialed(done))
		}},
		{"Clock.AfterFunc", "cnet.TimerFunc", func(c *harness.Cluster, done func()) {
			c.Machines[0].Proc("press").Env().Clock().AfterFunc(time.Second, done)
		}},
		{"Sim.After", "", func(c *harness.Cluster, done func()) {
			c.Sim.After(time.Second, done)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := harness.NewEngine(0).Build(harness.VCOOP, fastOpts(5))
			c.Gen.Start()
			c.Sim.RunUntil(30 * time.Second)
			called := false
			done := func() { called = true }
			tc.submit(c, done)

			want := "owner " + tc.owner + " not registered"
			if tc.owner == "" {
				want = "first " + snapio.FnName(done) + " at"
			}
			_, err := harness.Take(c, nil)
			var se *snapio.SnapError
			if !errors.As(err, &se) || !strings.Contains(se.Msg, want) {
				t.Fatalf("Take with the closure outstanding: %v, want a *snapio.SnapError containing %q", err, want)
			}
			c.Sim.RunFor(2 * time.Second)
			if !called {
				t.Fatal("the closure was never called")
			}
			if _, err := harness.Take(c, nil); err != nil {
				t.Fatalf("Take once the closure has run: %v", err)
			}
		})
	}
}

// wedgeDisk hangs a disk of node 1 and steps the world to an instant at
// which every kind of continuation the disk array and the network hold for
// a record is outstanding at once: reads queued behind a full disk queue,
// the server parked as the queue's space waiter, an FME health check in
// flight, and a front-end dial not yet dispatched.
func wedgeDisk(t *testing.T, c *harness.Cluster) {
	if _, err := c.Injector.Inject(faults.SCSITimeout, harness.DefaultComponent(faults.SCSITimeout)); err != nil {
		t.Fatal(err)
	}
	m := c.Machines[1]
	feDials := reflect.ValueOf(c.FEMach).Elem().FieldByName("dials")
	for deadline := c.Sim.Now() + time.Minute; ; {
		probes := 0
		c.Sim.VisitPending(func(_ time.Duration, _ uint64, afn func(any), _ any) {
			if strings.HasSuffix(snapio.FnName(afn), "simdisk.probeDone") {
				probes++
			}
		})
		queued, parked := m.Disks().Full() && m.Disks().QueueLen() > 0, m.Proc("press").Stalled()
		if queued && parked && probes > 0 && feDials.Len() > 0 {
			return
		}
		if !c.Sim.Step() || c.Sim.Now() > deadline {
			t.Fatalf("no instant with all four outstanding by %v: queue full %v, waiter parked %v, %d probes, %d front-end dials",
				c.Sim.Now(), queued, parked, probes, feDials.Len())
		}
	}
}

// stepUntil steps c to the first instant at which cond holds, within a
// minute.
func stepUntil(t *testing.T, c *harness.Cluster, what string, cond func() bool) {
	for deadline := c.Sim.Now() + time.Minute; !cond(); {
		if !c.Sim.Step() || c.Sim.Now() > deadline {
			t.Fatalf("no instant with %s by %v", what, c.Sim.Now())
		}
	}
}

// mailboxArgs lists, by reflection, the arg of every entry waiting in p's
// mailbox: its array from head on, then its segments.
func mailboxArgs(p *machine.Proc) []reflect.Value {
	v := reflect.ValueOf(p).Elem()
	var args []reflect.Value
	mb := v.FieldByName("mailbox")
	for i := int(v.FieldByName("head").Int()); i < mb.Len(); i++ {
		args = append(args, mb.Index(i).FieldByName("arg"))
	}
	tail, tailN := v.FieldByName("tail").Pointer(), int(v.FieldByName("tailN").Int())
	for s := v.FieldByName("segs"); !s.IsNil(); s = s.Elem().FieldByName("next") {
		calls, n := s.Elem().FieldByName("calls"), segEntries(s, tail, tailN)
		for i := range n {
			args = append(args, calls.Index(i).FieldByName("arg"))
		}
	}
	return args
}

// segEntries is how many entries segment s holds: tailN in the tail, a full
// segment's length in any other.
func segEntries(s reflect.Value, tail uintptr, tailN int) int {
	if s.Pointer() == tail {
		return tailN
	}
	return s.Elem().FieldByName("calls").Len()
}

// mailboxDials counts, by reflection, the dial results waiting in p's
// mailbox.
func mailboxDials(p *machine.Proc) int {
	n := 0
	for _, arg := range mailboxArgs(p) {
		if !arg.IsNil() && arg.Elem().Type().String() == "*simnet.Dial" {
			n++
		}
	}
	return n
}

// dialsOwnedBy counts, by reflection, the dial records m lists whose owner
// is a typ (as %T prints it): in flight, or with a result in a mailbox.
func dialsOwnedBy(m *machine.Machine, typ string) int {
	ds, n := reflect.ValueOf(m).Elem().FieldByName("dials"), 0
	for i := range ds.Len() {
		if o := ds.Index(i).Elem().FieldByName("owner"); !o.IsNil() && o.Elem().Type().String() == typ {
			n++
		}
	}
	return n
}

// timerOwner names, by reflection, the type (as %T prints it) of the owner
// a process timer record answers to; "" when v holds no timer record.
func timerOwner(v reflect.Value) string {
	if v.Kind() == reflect.Interface {
		v = v.Elem()
	}
	if !v.IsValid() || v.Type().String() != "*machine.timerRec" {
		return ""
	}
	if o := v.Elem().FieldByName("owner"); !o.IsNil() {
		return o.Elem().Type().String()
	}
	return ""
}

// mailboxTimers counts, by reflection, the timer fires waiting in p's
// mailbox whose owner is one of owners.
func mailboxTimers(p *machine.Proc, owners ...string) int {
	n := 0
	for _, arg := range mailboxArgs(p) {
		if slices.Contains(owners, timerOwner(arg)) {
			n++
		}
	}
	return n
}

// pendingTimers counts, by reflection, the timers armed on p that are
// pending in c's kernel and whose owner is one of owners.
func pendingTimers(c *harness.Cluster, p *machine.Proc, owners ...string) int {
	n := 0
	c.Sim.VisitPending(func(_ time.Duration, _ uint64, _ func(any), arg any) {
		v := reflect.ValueOf(arg)
		if slices.Contains(owners, timerOwner(v)) &&
			v.Elem().FieldByName("e").Elem().FieldByName("p").Pointer() == reflect.ValueOf(p).Pointer() {
			n++
		}
	})
	return n
}

// armed reports, by reflection, whether p's charge end is scheduled: work
// waits behind its charge.
func armed(p *machine.Proc) bool { return reflect.ValueOf(p).Elem().FieldByName("armed").Bool() }

// charging reports, by reflection, whether a charge of p's live
// incarnation is elapsing.
func charging(c *harness.Cluster, p *machine.Proc) bool {
	v := reflect.ValueOf(p).Elem()
	return p.Alive() && v.FieldByName("endInc").Uint() == v.FieldByName("incarnation").Uint() &&
		!c.Sim.Passed(time.Duration(v.FieldByName("endAt").Int()), v.FieldByName("endSeq").Uint())
}

// anyProc reports whether cond holds for some process of c's servers.
func anyProc(c *harness.Cluster, cond func(*machine.Proc) bool) bool {
	for _, m := range c.Machines {
		if cond(m.Proc("press")) {
			return true
		}
	}
	return false
}

// deadlineList describes, by reflection, the generator's deadline list k
// (0 connect, 1 complete): whether it holds a deadline and the key of its
// head, and the key of its wake when one is pending.
func deadlineList(c *harness.Cluster, k int) (head bool, headKey [2]int64, wake bool, wakeKey [2]int64) {
	l := reflect.ValueOf(c.Gen).Elem().FieldByName("lists").Index(k)
	if h := l.FieldByName("head"); !h.IsNil() {
		d := h.Elem().FieldByName("dl").Index(k)
		head, headKey = true, [2]int64{d.FieldByName("at").Int(), int64(d.FieldByName("seq").Uint())}
	}
	fn := []string{"workload.connectWake", "workload.completeWake"}[k]
	c.Sim.VisitPending(func(at time.Duration, seq uint64, afn func(any), _ any) {
		if strings.HasSuffix(snapio.FnName(afn), fn) {
			wake, wakeKey = true, [2]int64{int64(at), int64(seq)}
		}
	})
	return
}

// inboundStreams returns, by reflection, the peer streams node i's live
// server lists as inbound, and its process environment, which keeps their
// words; nil when the server is dead.
func inboundStreams(c *harness.Cluster, i int) ([]cnet.Conn, cnet.Env) {
	p := c.Machines[i].Proc("press")
	if !p.Alive() {
		return nil, nil
	}
	v := reflect.ValueOf(c.Server(i)).Elem().FieldByName("inbound")
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem().Interface().([]cnet.Conn), p.Env()
}

// TestRestoreThenCaptureIsFixedPoint: a snapshot of a restored world is
// the snapshot it was restored from. Nothing runs between the two, so a
// field a walk writes but does not read back shows as a differing byte
// here without a continuation having to stumble on it. Then both worlds
// run on, and must reach the same dump: a state that captures to the same
// bytes but restores to a different schedule (a key the kernel reserved
// but has not scheduled, say) shows there.
func TestRestoreThenCaptureIsFixedPoint(t *testing.T) {
	type capture struct {
		v      harness.Version
		at     time.Duration
		what   string                             // names the instant when before picks it
		before func(*testing.T, *harness.Cluster) // after running to at, before the capture
	}
	// deadlineRow captures the instant one of the generator's deadline
	// lists is in the state cond names.
	deadlineRow := func(what string, cond func(head bool, headKey [2]int64, wake bool, wakeKey [2]int64) bool) capture {
		return capture{harness.VCOOP, time.Minute, what, func(t *testing.T, c *harness.Cluster) {
			stepUntil(t, c, what, func() bool {
				for k := range 2 {
					if cond(deadlineList(c, k)) {
						return true
					}
				}
				return false
			})
		}}
	}
	var rows []capture
	for _, v := range harness.AllMeasuredVersions() {
		for _, at := range []time.Duration{30 * time.Second, 90 * time.Second} {
			rows = append(rows, capture{v: v, at: at})
		}
	}
	rows = append(rows,
		capture{harness.VFME, time.Minute, "/disk-wedged", wedgeDisk},
		capture{harness.VFME, time.Minute, "/dial-result-in-mailbox", func(t *testing.T, c *harness.Cluster) {
			fe := c.FEMach.Proc("frontend")
			stepUntil(t, c, "a dial result queued behind the front-end's charge", func() bool {
				return mailboxDials(fe) > 0 && armed(fe)
			})
		}},
		capture{harness.VFME, time.Minute, "/peer-dial-in-flight", func(t *testing.T, c *harness.Cluster) {
			if _, err := c.Injector.Inject(faults.AppCrash, 1); err != nil {
				t.Fatal(err)
			}
			stepUntil(t, c, "a server's peer dial in flight", func() bool {
				for i, m := range c.Machines {
					if i != 1 && dialsOwnedBy(m, "*server.peer") > mailboxDials(m.Proc("press")) {
						return true
					}
				}
				return false
			})
		}},
		capture{harness.VCOOP, time.Minute, "/timer-fire-in-mailbox", func(t *testing.T, c *harness.Cluster) {
			stepUntil(t, c, "a disk bounce or deferred admission queued behind a server's charge", func() bool {
				for _, m := range c.Machines {
					p := m.Proc("press")
					if mailboxTimers(p, "*server.diskOp", "*server.admitOp") > 0 && armed(p) {
						return true
					}
				}
				return false
			})
		}},
		capture{harness.VCOOP, time.Minute, "/dead-incarnation-timer", func(t *testing.T, c *harness.Cluster) {
			crash, err := c.Injector.Inject(faults.AppCrash, 1)
			if err != nil {
				t.Fatal(err)
			}
			c.Sim.RunFor(time.Second)
			if err := crash.Repair(); err != nil {
				t.Fatal(err)
			}
			press := c.Machines[1].Proc("press")
			stepUntil(t, c, "a redial or join timeout armed by node 1's server", func() bool {
				return press.Alive() && pendingTimers(c, press, "*server.Server", "*server.redial") > 0
			})
			if _, err := c.Injector.Inject(faults.AppCrash, 1); err != nil {
				t.Fatal(err)
			}
			if pendingTimers(c, press, "*server.Server", "*server.redial") == 0 {
				t.Fatal("the crash left no timer of the dead incarnation pending")
			}
		}},
		// An inbound stream's word packs its slot and its sender, which is
		// nobody until the Hello has run.
		capture{harness.VCOOP, time.Minute, "/inbound-before-hello", func(t *testing.T, c *harness.Cluster) {
			crash, err := c.Injector.Inject(faults.AppCrash, 1)
			if err != nil {
				t.Fatal(err)
			}
			c.Sim.RunFor(time.Second)
			if err := crash.Repair(); err != nil {
				t.Fatal(err)
			}
			stepUntil(t, c, "a server holding an accepted peer stream whose Hello has not run", func() bool {
				for i := range c.Machines {
					conns, env := inboundStreams(c, i)
					for _, conn := range conns {
						if uint32(env.ConnWord(conn)) == 0 {
							return true
						}
					}
				}
				return false
			})
		}},
		// A peer's send queue exists only once a message has had to wait:
		// here behind the window of a hung server that reads nothing.
		capture{harness.VCOOP, time.Minute, "/peer-queue-waiting", func(t *testing.T, c *harness.Cluster) {
			if _, err := c.Injector.Inject(faults.AppHang, 1); err != nil {
				t.Fatal(err)
			}
			stepUntil(t, c, "a message waiting in a server's send queue", func() bool {
				for i := range c.Machines {
					if i != 1 && c.Server(i).SendQueueLen(c.Machines[1].ID()) > 0 {
						return true
					}
				}
				return false
			})
		}},
		// A peer's redials exist only once a dial has failed: here the
		// membership service keeps a crashed server in the view, so its
		// peers dial it again and are refused.
		capture{harness.VMEM, time.Minute, "/peer-redials-armed", func(t *testing.T, c *harness.Cluster) {
			if _, err := c.Injector.Inject(faults.AppCrash, 1); err != nil {
				t.Fatal(err)
			}
			stepUntil(t, c, "a redial armed by a server towards the crashed one", func() bool {
				for i, m := range c.Machines {
					if i != 1 && pendingTimers(c, m.Proc("press"), "*server.redial") > 0 {
						return true
					}
				}
				return false
			})
		}},
		capture{harness.VCOOP, time.Minute, "/inbound-slot-moved", func(t *testing.T, c *harness.Cluster) {
			last := make([]int, len(c.Machines)) // each server's last inbound slot before the crash
			lastConn := make([]cnet.Conn, len(c.Machines))
			for i := range c.Machines {
				conns, _ := inboundStreams(c, i)
				last[i] = len(conns) - 1
				if last[i] >= 0 {
					lastConn[i] = conns[last[i]]
				}
			}
			if _, err := c.Injector.Inject(faults.AppCrash, 1); err != nil {
				t.Fatal(err)
			}
			stepUntil(t, c, "a close that moved a server's last inbound stream into a slot before it", func() bool {
				for i := range c.Machines {
					conns, _ := inboundStreams(c, i)
					if j := slices.Index(conns, lastConn[i]); j >= 0 && j < last[i] {
						return true
					}
				}
				return false
			})
		}},
	)
	rows = append(rows,
		deadlineRow("/stale-deadline-wake", func(head bool, headKey [2]int64, wake bool, wakeKey [2]int64) bool {
			return head && wake && wakeKey != headKey
		}),
		deadlineRow("/empty-list-wake-armed", func(head bool, _ [2]int64, wake bool, _ [2]int64) bool {
			return !head && wake
		}),
		capture{harness.VCOOP, time.Minute, "/charge-end-reserved", func(t *testing.T, c *harness.Cluster) {
			stepUntil(t, c, "a server charging with nothing waiting behind it", func() bool {
				return anyProc(c, func(p *machine.Proc) bool { return charging(c, p) && !armed(p) })
			})
		}},
		// Between two Steps of one instant: a charge whose end is due at
		// this instant after the event that last fired. It is still
		// elapsing, and so it must be in the restored world.
		capture{harness.VCOOP, time.Minute, "/charge-end-due-now", func(t *testing.T, c *harness.Cluster) {
			stepUntil(t, c, "a server charging until this very instant", func() bool {
				return anyProc(c, func(p *machine.Proc) bool {
					return charging(c, p) && time.Duration(reflect.ValueOf(p).Elem().FieldByName("endAt").Int()) == c.Sim.Now()
				})
			})
		}},
		capture{harness.VCOOP, time.Minute, "/charge-end-armed", func(t *testing.T, c *harness.Cluster) {
			stepUntil(t, c, "a server charging with work waiting behind it", func() bool {
				return anyProc(c, func(p *machine.Proc) bool { return charging(c, p) && armed(p) })
			})
		}},
	)
	for _, row := range rows {
		t.Run(fmt.Sprintf("%s/%v%s", row.v, row.at, row.what), func(t *testing.T) {
			t.Parallel()
			c := harness.NewEngine(0).Build(row.v, fastOpts(4))
			c.Gen.Start()
			c.Sim.RunUntil(row.at)
			if row.before != nil {
				row.before(t, c)
			}
			snap, err := harness.Take(c, nil)
			if err != nil {
				t.Fatalf("Take: %v", err)
			}
			r, err := snap.Restore(nil)
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			again, err := harness.Take(r, nil)
			if err != nil {
				t.Fatalf("Take of the restored world: %v", err)
			}
			if again.Hash() != snap.Hash() {
				a, b := snap.Bytes(), again.Bytes()
				i := 0
				for i < len(a) && i < len(b) && a[i] == b[i] {
					i++
				}
				t.Fatalf("re-captured snapshot differs from the one restored: first differing byte at offset %d (%d vs %d bytes)",
					i, len(a), len(b))
			}
			horizon := snap.At + 10*time.Second
			c.Sim.RunUntil(horizon)
			r.Sim.RunUntil(horizon)
			if want, got := dump(c), dump(r); got != want {
				t.Fatalf("restored world diverged from original\n--- original ---\n%s\n--- restored ---\n%s",
					tail(want, 2000), tail(got, 2000))
			}
		})
	}
}
