package server_test

import (
	"testing"
	"time"

	"press/internal/metrics"
)

// TestShardedServesAndCooperates: an 8-node cluster on the sharded
// directory protocol must serve a steady load at fault-free availability
// while still cooperating — forwards and remote serves happen even
// though announces go to each document's shard owner instead of the
// whole cluster.
func TestShardedServesAndCooperates(t *testing.T) {
	const n = 8
	tc := newTestCluster(t, clusterOpts{n: n, coop: true, ring: true, sharded: true, rate: 100})
	tc.run(2 * time.Second)
	tc.gen.Start()
	tc.run(60 * time.Second)
	if tc.rec.Offered < 4000 {
		t.Fatalf("offered only %d requests", tc.rec.Offered)
	}
	avail := tc.rec.Availability(10*time.Second, tc.sim.Now()-8*time.Second)
	if avail < 0.999 {
		t.Fatalf("sharded fault-free availability %v (failed=%d connect=%d complete=%d)",
			avail, tc.rec.Failed, tc.rec.ConnectFailures, tc.rec.CompleteFailures)
	}
	var forwards, remote, peerServes uint64
	for i := 0; i < n; i++ {
		st := tc.srv(i).Stats()
		forwards += st.ForwardsOut
		remote += st.RemoteServed
		peerServes += st.PeerServes
	}
	if forwards == 0 || remote == 0 || peerServes == 0 {
		t.Fatalf("no cooperation under sharding: forwards=%d remote=%d peerServes=%d",
			forwards, remote, peerServes)
	}
}

// TestShardedRelayExceedsFirstHops: under the sharded protocol the home
// node relays misses to recorded holders; relays send a FwdMsg without a
// matching first-hop ForwardsOut increment, so across the cluster
// PeerServes replies can exceed what first hops alone would produce.
// The observable contract tested here: every forwarded request still
// completes (RemoteServed on the requester side) and nothing wedges.
func TestShardedRelayCompletes(t *testing.T) {
	const n = 8
	tc := newTestCluster(t, clusterOpts{n: n, coop: true, ring: true, sharded: true, rate: 120})
	tc.run(2 * time.Second)
	tc.gen.Start()
	tc.run(90 * time.Second)
	var remote uint64
	for i := 0; i < n; i++ {
		remote += tc.srv(i).Stats().RemoteServed
	}
	if remote == 0 {
		t.Fatal("no forwarded request ever completed under sharding")
	}
	// Steady state must not leak active slots: with the generator still
	// running, each node's active count stays bounded by its admission
	// limit rather than growing without bound.
	for i := 0; i < n; i++ {
		if a := tc.srv(i).Active(); a > 32 {
			t.Fatalf("node %d active=%d exceeds admission bound", i, a)
		}
	}
}

// TestShardedCrashExcludeRejoin: the faithful fault loop — detect,
// exclude, reintegrate — must behave identically under the sharded
// directory, including dropping the dead node's directory state (no
// forwards routed into the hole) and re-seeding via Hello on rejoin.
func TestShardedCrashExcludeRejoin(t *testing.T) {
	const n = 8
	tc := newTestCluster(t, clusterOpts{n: n, coop: true, ring: true, sharded: true, rate: 100})
	tc.run(2 * time.Second)
	tc.gen.Start()
	tc.run(10 * time.Second)

	crashAt := tc.sim.Now()
	tc.machines[3].Crash()
	tc.run(10 * time.Second)
	for i := 0; i < n; i++ {
		if i == 3 {
			continue
		}
		if got := len(tc.srv(i).View()); got != n-1 {
			t.Fatalf("node %d view size %d after crash, want %d", i, got, n-1)
		}
	}
	if _, ok := tc.log.Query().After(crashAt).FirstWhere(func(e metrics.Event) bool {
		return e.Kind == metrics.KDetect && e.Node == 3
	}); !ok {
		t.Fatalf("no detection event for node 3\n%s", tc.log.Dump())
	}

	tc.machines[3].Restart()
	tc.run(8 * time.Second)
	if !viewsEqualAll(tc, n) {
		for i := 0; i < n; i++ {
			t.Logf("node %d view %v", i, tc.srv(i).View())
		}
		t.Fatal("sharded cluster did not reintegrate after restart")
	}
	// Service must have survived the whole episode reasonably: the
	// cluster lost 1/8 capacity briefly, not its ability to serve.
	avail := tc.rec.Availability(crashAt+20*time.Second, tc.sim.Now())
	if avail < 0.99 {
		t.Fatalf("post-reintegration availability %v", avail)
	}
}
