package press_test

import (
	"runtime"
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

// scale256Window builds the 256-node world, settles it for 20 s and runs
// the chaos window, returning the deployment and the events the window
// fired.
func scale256Window(t *testing.T) (*press.Deployment, uint64) {
	t.Helper()
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
	return dep, dep.Sim.EventsFired() - e0
}

// TestScale256EventCountInvariant is the CI scale-smoke anchor for the
// wide-cluster fast path: the full 256-node chaos window must fire
// exactly the recorded number of kernel events. Any divergence is a
// behavioral change in the scalable suite, not flake — the run is
// seeded and bit-deterministic.
func TestScale256EventCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node chaos window is a few seconds of wall clock; skipped in -short")
	}
	dep, events := scale256Window(t)
	if events != scale256Events {
		t.Errorf("256-node chaos window fired %d events, want %d", events, scale256Events)
	}
	if hw := dep.Sim.MaxQueued(); hw != scale256HeapHW {
		t.Errorf("event heap high-water %d, want %d", hw, scale256HeapHW)
	}
}

// scale256LiveHeapMB and scale256LiveObjects are the live heap and its
// object count at the end of the same window, after a forced collection,
// as measured on linux/amd64 (DESIGN §17: the bytes repeat to ±0.2 MB, the
// count to a few objects). The world is deterministic, so what it keeps is
// a pinned number like the event count; the test allows 1 MB and 1 % of
// the objects over.
const (
	scale256LiveHeapMB  = 44.6
	scale256LiveObjects = 174_418
)

// TestScale256LiveHeap pins the bytes per node: what the 256-node world
// keeps resident at the end of the chaos window. A change that makes a
// per-connection or per-event structure bigger, or keeps a storm's
// high-water that used to be dropped, shows here as megabytes; a record
// or closure kept per connection again shows as 65,280 objects more, an
// object per event at the storm's high-water as 65,335 more, and a send
// queue allocated for every peer instead of the first time a message has
// to wait as 65,280 more.
func TestScale256LiveHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node chaos window is a few seconds of wall clock; skipped in -short")
	}
	dep, _ := scale256Window(t)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(dep)
	mb := float64(ms.HeapAlloc) / (1 << 20)
	t.Logf("live heap %.1f MB, %.0f KB per node, %d objects", mb, mb*1024/256, ms.HeapObjects)
	if mb > scale256LiveHeapMB+1 {
		t.Errorf("live heap %.1f MB after the 256-node window, want at most %.1f + 1", mb, float64(scale256LiveHeapMB))
	}
	if limit := uint64(scale256LiveObjects + scale256LiveObjects/100); ms.HeapObjects > limit {
		t.Errorf("%d heap objects after the 256-node window, want at most %d (%d + 1 %%)", ms.HeapObjects, limit, scale256LiveObjects)
	}
}
