package server_test

import (
	"testing"
	"time"

	"press/internal/cnet"
	"press/internal/metrics"
	"press/internal/server"
)

// TestRejoinWhenLowestNodeDead: the join protocol's responder is the
// lowest-ID *active* member; a restarting node must still get a view when
// node 0 is down.
func TestRejoinWhenLowestNodeDead(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 4, coop: true, ring: true})
	tc.run(3 * time.Second)
	tc.machines[0].Crash() // node 0 gone for good (this test never repairs it)
	tc.run(8 * time.Second)
	tc.machines[1].KillProc("press")
	tc.run(2 * time.Second)
	tc.machines[1].StartProc("press")
	tc.run(8 * time.Second)
	// Node 1 must have rejoined {1,2,3} via node 1's JoinReq answered by
	// node 2 (the lowest active member at that moment) or via hellos.
	if got := len(tc.srv(1).View()); got != 3 {
		t.Fatalf("restarted node view size %d, want 3\n%s", got, tc.log.Dump())
	}
	for _, i := range []int{2, 3} {
		if got := len(tc.srv(i).View()); got != 3 {
			t.Fatalf("node %d view size %d, want 3", i, got)
		}
	}
}

// TestSwitchDownSplintersCoopIntoSingletons: with the intra switch out,
// every node ends up alone (and keeps serving its share).
func TestSwitchDownSplintersCoopIntoSingletons(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 4, coop: true, ring: true, rate: 40})
	tc.run(2 * time.Second)
	tc.gen.Start()
	tc.run(5 * time.Second)
	tc.net.SetSwitch(false)
	tc.run(15 * time.Second)
	for i := 0; i < 4; i++ {
		if got := len(tc.srv(i).View()); got != 1 {
			t.Fatalf("node %d view size %d under switch outage, want 1", i, got)
		}
	}
	// Clients are on the (unaffected) access network: service continues
	// at independent-server quality, not zero.
	av := tc.rec.Availability(tc.sim.Now()-5*time.Second, tc.sim.Now()-2*time.Second)
	if av < 0.15 {
		t.Fatalf("availability %v under switch outage; singletons should still serve", av)
	}
}

// TestINDEPIgnoresIntraFaults: the independent version has no intra
// traffic at all, so intra faults are free.
func TestINDEPIgnoresIntraFaults(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 4, coop: false, rate: 40})
	tc.gen.Start()
	tc.run(10 * time.Second)
	tc.net.SetSwitch(false)
	tc.machines[2].Iface().SetLink(false)
	tc.run(20 * time.Second)
	av := tc.rec.Availability(12*time.Second, tc.sim.Now()-8*time.Second)
	if av < 0.999 {
		t.Fatalf("INDEP availability %v under intra faults, want ~1", av)
	}
}

// fakeMembership drives the server's external membership view directly.
type fakeMembership struct {
	subs []func([]cnet.NodeID)
}

func (f *fakeMembership) Subscribe(fn func(members []cnet.NodeID)) {
	f.subs = append(f.subs, fn)
}

func (f *fakeMembership) publish(members []cnet.NodeID) {
	for _, fn := range f.subs {
		fn(members)
	}
}

// TestMembershipViewDrivesCooperationSet: NodeOut excludes, NodeIn
// re-includes, and re-inclusion overrides a queue-monitoring verdict —
// the §4.4 seam, exercised deterministically.
func TestMembershipViewDrivesCooperationSet(t *testing.T) {
	fms := make([]*fakeMembership, 4)
	idx := 0
	tc := newTestCluster(t, clusterOpts{
		n: 4, coop: true, ring: false, qmon: true, rate: 40,
		memb: func(node cnet.NodeID) server.MembershipView {
			fm := &fakeMembership{}
			fms[idx] = fm
			idx++
			return fm
		},
	})
	tc.run(3 * time.Second)
	all := []cnet.NodeID{0, 1, 2, 3}
	for _, fm := range fms {
		fm.publish(all)
	}
	tc.run(2 * time.Second)
	if got := len(tc.srv(0).View()); got != 4 {
		t.Fatalf("view %d after full publish", got)
	}
	// NodeOut for node 3 everywhere.
	for i, fm := range fms {
		if i != 3 {
			fm.publish([]cnet.NodeID{0, 1, 2})
		}
	}
	tc.run(2 * time.Second)
	for _, i := range []int{0, 1, 2} {
		for _, v := range tc.srv(i).View() {
			if v == 3 {
				t.Fatalf("node %d still lists 3 after NodeOut", i)
			}
		}
	}
	// NodeIn again.
	for i, fm := range fms {
		if i != 3 {
			fm.publish(all)
		}
	}
	tc.run(3 * time.Second)
	for _, i := range []int{0, 1, 2} {
		if got := len(tc.srv(i).View()); got != 4 {
			t.Fatalf("node %d view %d after NodeIn", i, got)
		}
	}
}

// TestProbeWhileStalledGetsNoAnswer: the FME probe must observe a
// disk-blocked main thread as unresponsive.
func TestProbeWhileStalledGetsNoAnswer(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 4, coop: true, ring: true, rate: 80})
	tc.run(2 * time.Second)
	tc.gen.Start()
	tc.run(20 * time.Second)
	for _, d := range tc.machines[1].Disks().Disks() {
		d.SetFaulty(true)
	}
	// Wait until the main thread blocks.
	deadline := tc.sim.Now() + 60*time.Second
	for tc.sim.Now() < deadline && !tc.machines[1].Proc("press").Stalled() {
		tc.run(time.Second)
	}
	if !tc.machines[1].Proc("press").Stalled() {
		t.Fatal("main thread never blocked on the dead disks")
	}
	probe := tc.net.AddIface(501)
	answered := false
	probe.Dial(1, cnet.ClassClient, server.PortHTTP, cnet.StreamHandlers{
		OnMessage: func(c cnet.Conn, m cnet.Message) { answered = true },
	}, func(c cnet.Conn, err error) {
		if err != nil {
			t.Errorf("probe dial should succeed against a stalled app (backlog): %v", err)
			return
		}
		c.TrySend(&server.ReqMsg{ID: 1, Probe: true}, 64)
	})
	tc.run(10 * time.Second)
	if answered {
		t.Fatal("stalled main thread answered the probe")
	}
}

// TestExclusionRequeuesInflightForwards: when a peer dies with forwards
// outstanding, the initial node reroutes them (locally or to another
// holder) rather than letting every one die by client timeout.
func TestExclusionRequeuesInflightForwards(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 4, coop: true, ring: true, rate: 60, hbPeriod: 500 * time.Millisecond})
	tc.run(2 * time.Second)
	tc.gen.Start()
	tc.run(10 * time.Second)
	okBefore := tc.rec.Succeeded
	tc.machines[2].Crash()
	tc.run(15 * time.Second)
	// Fast ring (0.5s hb): exclusion within ~2s, so most in-flight work is
	// rerouted and availability stays well above the wedge level.
	av := tc.rec.Availability(tc.sim.Now()-10*time.Second, tc.sim.Now()-5*time.Second)
	if av < 0.5 {
		t.Fatalf("availability %v after fast exclusion; requeue ineffective", av)
	}
	if tc.rec.Succeeded == okBefore {
		t.Fatal("nothing served after the crash")
	}
	if _, ok := tc.log.Query().After(0).FirstWhere(func(e metrics.Event) bool {
		return e.Kind == metrics.KExclude && e.Node == 2
	}); !ok {
		t.Fatal("no exclusion recorded")
	}
}
