package workload_test

import (
	"testing"
	"time"

	"press"
	"press/internal/faults"
)

// pr10Scale256Events is the kernel event count PR 10 pinned for the
// N=256 seed-1 chaos window, when every answered request still left its
// complete timeout to fire as a no-op six seconds later.
const pr10Scale256Events = 9_608_479

// TestScale256CancelledTimeoutsAccountForSchedule keeps PR 10's schedule
// pinned through the timeout cancellation by derivation: the window of
// the root package's TestScale256EventCountInvariant fires exactly PR
// 10's events minus the no-op firings of the timeouts that are now
// cancelled, and nothing else moved.
//
// A cancelled timeout removes an event from the window (t0, t1] when its
// deadline — not its cancellation — falls inside it. Every timeout runs
// for the same span T, so the timeouts due in the window are those armed
// in (t0-T, t1-T]; of those, the ones that still fire are the requests
// decided in the window by nothing but the timeout. With A = timeouts
// armed, D = armed requests decided and K = timeouts cancelled, all read
// at window boundaries:
//
//	removed = [A(t1-T) - A(t0-T)] - [(D - K)(t1) - (D - K)(t0)]
//
// K is the generator's own counter; A and D follow from the recorder
// (armed = offered - connect failures - still connecting; decided after
// arming = succeeded + complete failures). On the way, the charge ends the
// machines never scheduled (X, their own count) are added back: the
// window fires the pinned schedule's events - removed - X.
func TestScale256CancelledTimeoutsAccountForSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node chaos window is a few seconds of wall clock; skipped in -short")
	}
	o := press.FastOptions(1)
	o.Nodes = 256
	o.Protocol = press.Scalable
	o.Rate = 40 * 256
	dep := press.New(press.WithVersion(press.COOP), press.WithOptions(o)).Build()
	gen, rec := dep.Gen, dep.Rec
	T := gen.CompleteTimeout()

	armed := func() int64 {
		return int64(rec.Offered) - int64(rec.ConnectFailures) - int64(gen.Connecting())
	}
	// D - K: armed requests decided by nothing but their timeout firing.
	timedOut := func() int64 {
		return int64(rec.Succeeded) + int64(rec.CompleteFailures) - int64(gen.CompleteCancelled())
	}

	gen.Start()
	dep.Sim.RunFor(20*time.Second - T)
	a0 := armed()
	dep.Sim.RunFor(T) // settled: t0
	unscheduled := func() int64 {
		ms := append(dep.Machines[:len(dep.Machines):len(dep.Machines)], dep.FEMachines...)
		n := int64(0)
		for _, m := range ms {
			n += int64(m.UnscheduledChargeEnds())
		}
		return n
	}
	e0, f0, k0, x0 := dep.Sim.EventsFired(), timedOut(), gen.CompleteCancelled(), unscheduled()

	crash, err := dep.Injector.Inject(press.NodeCrash, 1)
	if err != nil {
		t.Fatal(err)
	}
	flap, err := dep.Injector.InjectFlap(press.LinkDown, 2, faults.Flap{On: 15 * time.Second, Off: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	hang, err := dep.Injector.Inject(press.AppHang, 3)
	if err != nil {
		t.Fatal(err)
	}
	dep.Sim.RunFor(60 * time.Second)
	if err := crash.Repair(); err != nil {
		t.Fatal(err)
	}
	if err := flap.Repair(); err != nil {
		t.Fatal(err)
	}
	_ = hang.Repair() // FME may have already restarted the hung app
	dep.Sim.RunFor(60*time.Second - T)
	a1 := armed()
	dep.Sim.RunFor(T) // t1

	events := int64(dep.Sim.EventsFired()-e0) + unscheduled() - x0
	removed := (a1 - a0) - (timedOut() - f0)
	if events+removed != pr10Scale256Events {
		t.Errorf("window scheduled %d events (unscheduled charge ends included) and cancelled timeouts removed %d: %d, want the pinned %d",
			events, removed, events+removed, pr10Scale256Events)
	}
	if k := int64(gen.CompleteCancelled() - k0); k == 0 || removed <= 0 {
		t.Errorf("no cancellation observed in the window (cancelled %d, removed %d)", k, removed)
	}
	t.Logf("events %d + removed %d (timeouts cancelled in window: %d)", events, removed, gen.CompleteCancelled()-k0)
}
