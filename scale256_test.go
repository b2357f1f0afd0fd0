package press_test

import (
	"testing"
	"time"

	"press"
	"press/internal/faults"
)

// scale256Events and scale256HeapHW pin the exact kernel schedule of the
// benchScaling 256-node chaos window at seed 1: a 256-node COOP cluster
// on the Scalable suite at 40 req/s per node, a node crash, a flapping
// backplane link and an application hang, all repaired in-window. Every
// event-collapsing optimization (batched multicast delivery, the timer
// wheel) is required to preserve this schedule exactly — EventsFired
// counts collapsed deliveries individually, so a drift here means the
// optimization changed model behavior, not just bookkeeping.
//
// PR 10 pinned 9,608,479 events / high-water 66,317. Since the client
// cancels a finished request's complete timeout, 746,779 no-op firings
// are gone from the window and the queue no longer carries six seconds
// of dead timers; internal/workload's
// TestScale256CancelledTimeoutsAccountForSchedule derives the difference
// from the generator's own counts (8,861,700 + 746,779 = 9,608,479), so
// the schedule underneath is still PR 10's.
const (
	scale256Events = 8_861_700
	scale256HeapHW = 65_335
)

// TestScale256EventCountInvariant is the CI scale-smoke anchor for the
// wide-cluster fast path: the full 256-node chaos window must fire
// exactly the recorded number of kernel events. Any divergence is a
// behavioral change in the scalable suite, not flake — the run is
// seeded and bit-deterministic.
func TestScale256EventCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node chaos window is a few seconds of wall clock; skipped in -short")
	}
	o := press.FastOptions(1)
	o.Nodes = 256
	o.Protocol = press.Scalable
	o.Rate = 40 * 256
	dep := press.New(press.WithVersion(press.COOP), press.WithOptions(o)).Build()
	dep.Gen.Start()
	dep.Sim.RunFor(20 * time.Second) // settle

	e0 := dep.Sim.EventsFired()
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
	dep.Sim.RunFor(60 * time.Second)

	if events := dep.Sim.EventsFired() - e0; events != scale256Events {
		t.Errorf("256-node chaos window fired %d events, want %d", events, scale256Events)
	}
	if hw := dep.Sim.MaxQueued(); hw != scale256HeapHW {
		t.Errorf("event heap high-water %d, want %d", hw, scale256HeapHW)
	}
}
