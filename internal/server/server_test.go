package server_test

import (
	"testing"
	"time"

	"press/internal/cnet"
	"press/internal/machine"
	"press/internal/metrics"
	"press/internal/server"
	"press/internal/sim"
	"press/internal/simdisk"
	"press/internal/simnet"
	"press/internal/trace"
	"press/internal/workload"
)

// testCluster assembles an n-node PRESS cluster with one client driver.
type testCluster struct {
	sim      *sim.Sim
	net      *simnet.Network
	log      *metrics.Log
	machines []*machine.Machine
	servers  []**server.Server // latest incarnation per node
	gen      *workload.Generator
	rec      *workload.Recorder
	catalog  *trace.Catalog
}

type clusterOpts struct {
	n        int
	coop     bool
	ring     bool
	qmon     bool
	sharded  bool
	rate     float64
	memb     func(node cnet.NodeID) server.MembershipView
	hbPeriod time.Duration
}

func newTestCluster(t *testing.T, o clusterOpts) *testCluster {
	t.Helper()
	if o.hbPeriod == 0 {
		o.hbPeriod = time.Second
	}
	s := sim.New(42)
	log := &metrics.Log{}
	net := simnet.New(s, simnet.DefaultConfig(), log)
	// A small catalog keeps tests fast: 2000 docs, each node caches 500.
	cat := trace.NewCatalog(2000, 27*1024, 0.8)
	tc := &testCluster{sim: s, net: net, log: log, catalog: cat}

	var nodes []cnet.NodeID
	for i := 0; i < o.n; i++ {
		nodes = append(nodes, cnet.NodeID(i))
	}
	diskCfg := simdisk.Config{MeanService: 40 * time.Millisecond, JitterFrac: 0.2, QueueCap: 8, Workers: 2}
	for i := 0; i < o.n; i++ {
		i := i
		disks := simdisk.NewArray(s, s.NewRand("disks"), diskCfg, 2)
		m := machine.New(s, net, nodes[i], disks, log)
		holder := new(*server.Server)
		tc.servers = append(tc.servers, holder)
		cfg := server.Config{
			Self:            nodes[i],
			Nodes:           nodes,
			Cooperative:     o.coop,
			Sharded:         o.sharded,
			RingDetector:    o.ring,
			HeartbeatPeriod: o.hbPeriod,
			JoinTimeout:     500 * time.Millisecond,
			CacheBytes:      500 * 27 * 1024,
			Catalog:         cat,
			QMon:            o.qmon,
		}
		m.AddProc("press", func(env *machine.Env) {
			var mv server.MembershipView
			if o.memb != nil {
				mv = o.memb(cfg.Self)
			}
			*holder = server.New(cfg, env, disks, mv)
		})
		tc.machines = append(tc.machines, m)
	}

	tc.rec = workload.NewRecorder()
	if o.rate > 0 {
		tc.gen = workload.NewGenerator(s, net, 1000, workload.Config{
			Rate:    o.rate,
			Targets: nodes,
			Catalog: cat,
		}, tc.rec)
	}
	return tc
}

func (tc *testCluster) srv(i int) *server.Server { return *tc.servers[i] }

func (tc *testCluster) run(d time.Duration) { tc.sim.RunFor(d) }

func viewsEqualAll(tc *testCluster, n int) bool {
	for i := 0; i < n; i++ {
		if tc.machines[i].State() != simnet.NodeUp || !tc.machines[i].Proc("press").Alive() {
			continue
		}
		if len(tc.srv(i).View()) != n {
			return false
		}
	}
	return true
}

func TestColdStartFormsFullView(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 4, coop: true, ring: true})
	tc.run(3 * time.Second)
	for i := 0; i < 4; i++ {
		if got := len(tc.srv(i).View()); got != 4 {
			t.Fatalf("node %d view size %d, want 4\n%s", i, got, tc.log.Dump())
		}
	}
}

func TestServesRequestsNoFaults(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 4, coop: true, ring: true, rate: 60})
	tc.run(2 * time.Second) // let the cluster form
	tc.gen.Start()
	tc.run(60 * time.Second)
	if tc.rec.Offered < 3000 {
		t.Fatalf("offered only %d requests", tc.rec.Offered)
	}
	avail := tc.rec.Availability(10*time.Second, tc.sim.Now()-8*time.Second)
	if avail < 0.999 {
		t.Fatalf("fault-free availability %v, want ~1 (failed=%d connect=%d complete=%d)",
			avail, tc.rec.Failed, tc.rec.ConnectFailures, tc.rec.CompleteFailures)
	}
}

func TestCooperativeCacheForwards(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 4, coop: true, ring: true, rate: 60})
	tc.run(2 * time.Second)
	tc.gen.Start()
	tc.run(60 * time.Second)
	var forwards, remote uint64
	for i := 0; i < 4; i++ {
		st := tc.srv(i).Stats()
		forwards += st.ForwardsOut
		remote += st.RemoteServed
	}
	if forwards == 0 || remote == 0 {
		t.Fatalf("no cooperation observed: forwards=%d remote=%d", forwards, remote)
	}
}

func TestIndependentNeverForwards(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 4, coop: false, rate: 40})
	tc.gen.Start()
	tc.run(30 * time.Second)
	for i := 0; i < 4; i++ {
		if st := tc.srv(i).Stats(); st.ForwardsOut != 0 || st.PeerServes != 0 {
			t.Fatalf("INDEP node %d cooperated: %+v", i, st)
		}
	}
	if tc.rec.Succeeded == 0 {
		t.Fatal("INDEP served nothing")
	}
}

func TestNodeCrashDetectedExcludedAndRejoins(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 4, coop: true, ring: true, rate: 60})
	tc.run(2 * time.Second)
	tc.gen.Start()
	tc.run(10 * time.Second)

	crashAt := tc.sim.Now()
	tc.machines[2].Crash()
	tc.run(10 * time.Second) // > 3 heartbeats

	for _, i := range []int{0, 1, 3} {
		if got := len(tc.srv(i).View()); got != 3 {
			t.Fatalf("node %d view size %d after crash, want 3", i, got)
		}
	}
	if _, ok := tc.log.Query().After(crashAt).FirstWhere(func(e metrics.Event) bool {
		return e.Kind == metrics.KDetect && e.Node == 2
	}); !ok {
		t.Fatalf("no detection event for node 2\n%s", tc.log.Dump())
	}

	tc.machines[2].Restart()
	tc.run(8 * time.Second)
	if !viewsEqualAll(tc, 4) {
		for i := 0; i < 4; i++ {
			t.Logf("node %d view %v", i, tc.srv(i).View())
		}
		t.Fatal("cluster did not reintegrate after restart")
	}
}

func TestNodeFreezeSplintersNoRejoin(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 4, coop: true, ring: true, rate: 60})
	tc.run(2 * time.Second)
	tc.gen.Start()
	tc.run(10 * time.Second)

	tc.machines[1].Freeze()
	tc.run(10 * time.Second)
	for _, i := range []int{0, 2, 3} {
		if got := len(tc.srv(i).View()); got != 3 {
			t.Fatalf("node %d view size %d during freeze, want 3", i, got)
		}
	}
	tc.machines[1].Unfreeze()
	tc.run(20 * time.Second)
	// The violated fault model: the thawed node does NOT rejoin; it ends
	// up as a singleton (its connections were torn down) and the others
	// keep running without it.
	if got := len(tc.srv(1).View()); got != 1 {
		t.Fatalf("thawed node view size %d, want splintered singleton", got)
	}
	for _, i := range []int{0, 2, 3} {
		if got := len(tc.srv(i).View()); got != 3 {
			t.Fatalf("node %d view size %d after thaw, want 3 (splinter)", i, got)
		}
	}
}

func TestAppCrashFastExclusionAndRejoin(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 4, coop: true, ring: true, rate: 60})
	tc.run(2 * time.Second)
	tc.gen.Start()
	tc.run(5 * time.Second)

	crashAt := tc.sim.Now()
	tc.machines[3].KillProc("press")
	tc.run(2 * time.Second) // RSTs propagate well before heartbeat timeout
	for _, i := range []int{0, 1, 2} {
		if got := len(tc.srv(i).View()); got != 3 {
			t.Fatalf("node %d view size %d shortly after app crash, want 3", i, got)
		}
	}
	// Exclusion must have happened well before the ring deadline (3 x 1 s).
	ev, ok := tc.log.Query().After(crashAt).FirstWhere(func(e metrics.Event) bool {
		return e.Kind == metrics.KExclude && e.Node == 3
	})
	if !ok || ev.At-crashAt > 2*time.Second {
		t.Fatalf("exclusion too slow or missing (ev=%+v ok=%v)", ev, ok)
	}

	tc.machines[3].StartProc("press")
	tc.run(8 * time.Second)
	if !viewsEqualAll(tc, 4) {
		t.Fatal("cluster did not reintegrate after app restart")
	}
}

func TestDiskFaultWedgesClusterThenRingExcludes(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 4, coop: true, ring: true, rate: 80})
	tc.run(2 * time.Second)
	tc.gen.Start()
	tc.run(30 * time.Second) // warm caches a little

	faultAt := tc.sim.Now()
	for _, d := range tc.machines[0].Disks().Disks() {
		d.SetFaulty(true)
	}
	// The sick node's main thread eventually blocks on the full disk
	// queue, stops heartbeating, and the ring excludes it.
	tc.run(60 * time.Second)
	if _, ok := tc.log.Query().Kind(metrics.KExclude).Node(0).After(faultAt + 1).First(); !ok {
		t.Fatalf("sick node never excluded\n%s", tc.log.Dump())
	}
	if !tc.machines[0].Proc("press").Stalled() {
		t.Fatal("sick node's main thread is not blocked on the disk queue")
	}
	// Survivors keep serving: availability after exclusion recovers.
	av := tc.rec.Availability(tc.sim.Now()-15*time.Second, tc.sim.Now()-8*time.Second)
	if av < 0.5 {
		t.Fatalf("post-exclusion availability %v too low", av)
	}
}

func TestQMonExcludesHungPeerWithoutRing(t *testing.T) {
	// qmon's thresholds are scaled to a request rate: at 160 req/s every
	// peer's queue to the hung node crosses them inside the window (at 80
	// req/s node 1's takes longer than 150 s).
	tc := newTestCluster(t, clusterOpts{n: 4, coop: true, ring: false, qmon: true, rate: 160})
	tc.run(2 * time.Second)
	tc.gen.Start()
	tc.run(20 * time.Second)

	hangAt := tc.sim.Now()
	tc.machines[2].Proc("press").Hang()
	tc.run(150 * time.Second)

	if _, ok := tc.log.Query().After(hangAt).FirstWhere(func(e metrics.Event) bool {
		return e.Kind == metrics.KQMonFail && e.Node == 2
	}); !ok {
		t.Fatalf("queue monitoring never failed the hung peer\n%s", tc.log.Dump())
	}
	for _, i := range []int{0, 1, 3} {
		for _, v := range tc.srv(i).View() {
			if v == 2 {
				t.Fatalf("hung node still in node %d's view", i)
			}
		}
	}
}

func TestProbeAnswered(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 2, coop: true, ring: true})
	tc.run(2 * time.Second)
	probe := tc.net.AddIface(500)
	var resp *server.RespMsg
	probe.Dial(0, cnet.ClassClient, server.PortHTTP, cnet.StreamHandlers{
		OnMessage: func(c cnet.Conn, m cnet.Message) {
			resp = m.(*server.RespMsg)
		},
	}, func(c cnet.Conn, err error) {
		if err != nil {
			t.Errorf("probe dial: %v", err)
			return
		}
		c.TrySend(&server.ReqMsg{ID: 1, Probe: true}, 64)
	})
	tc.run(time.Second)
	if resp == nil || !resp.OK || !resp.Probe {
		t.Fatalf("probe response %+v", resp)
	}
}

func TestLinkDownSplintersBothSides(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 4, coop: true, ring: true, rate: 40})
	tc.run(2 * time.Second)
	tc.gen.Start()
	tc.run(5 * time.Second)

	tc.machines[3].Iface().SetLink(false)
	tc.run(15 * time.Second)
	if got := len(tc.srv(3).View()); got != 1 {
		t.Fatalf("isolated node view %v, want singleton", tc.srv(3).View())
	}
	for _, i := range []int{0, 1, 2} {
		if got := len(tc.srv(i).View()); got != 3 {
			t.Fatalf("node %d view size %d, want 3", i, got)
		}
	}
	// Heal: base PRESS stays splintered (no process restarted).
	tc.machines[3].Iface().SetLink(true)
	tc.run(15 * time.Second)
	if got := len(tc.srv(3).View()); got != 1 {
		t.Fatalf("view healed to %d without restart; base PRESS must stay splintered", got)
	}
}
