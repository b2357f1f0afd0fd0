package membership_test

import (
	"fmt"
	"testing"
	"time"

	"press/internal/cnet"
	"press/internal/faults"
	"press/internal/machine"
	"press/internal/membership"
	"press/internal/metrics"
)

// newGossipWorld builds n machines each running a gossip-mode membership
// daemon over the full peer set, with a 1 s round period.
func newGossipWorld(t *testing.T, n int) *world {
	return newWorldOf(t, n, membership.Config{HBPeriod: time.Second, HBMiss: 3, Gossip: true, Peers: nodeIDs(n)})
}

// gossipRounds is the dissemination budget the daemon itself derives:
// the miss count plus ceil(log2 n) flood rounds.
func gossipRounds(n int) int {
	r := 3
	for k := 1; k < n; k *= 2 {
		r++
	}
	return r
}

func fullGroup(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// TestGossipConvergenceBound: a cold-started gossip cluster of size N
// converges to one full view within the daemon's own staleness budget
// (HBMiss + ceil(log2 N) rounds) plus two rounds of slack — the bound
// the Scalable protocol suite's detection latency rests on. The budget
// grows logarithmically, not linearly, with N.
func TestGossipConvergenceBound(t *testing.T) {
	for _, n := range []int{8, 32, 64} {
		n := n
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			w := newGossipWorld(t, n)
			bound := time.Duration(gossipRounds(n)+2) * time.Second
			w.sim.RunFor(bound)
			if !allInOneGroup(w, fullGroup(n)) {
				t.Fatalf("%d-node gossip cold start not converged after %v: %v",
					n, bound, w.groupSizes())
			}
		})
	}
}

// TestGossipCrashExcludeRejoin: a crashed node's counter goes stale and
// every survivor drops it within the staleness deadline; on restart the
// daemon comes back with counter 1, hears the cluster's old memory of
// its higher counter, jumps past it (the reincarnation bump), and is
// readmitted everywhere.
func TestGossipCrashExcludeRejoin(t *testing.T) {
	const n = 16
	w := newGossipWorld(t, n)
	w.sim.RunFor(time.Duration(gossipRounds(n)+2) * time.Second)
	if !allInOneGroup(w, fullGroup(n)) {
		t.Fatalf("cold start not converged: %v", w.groupSizes())
	}
	crashAt := w.sim.Now()
	w.machines[5].Crash()
	// Detection worst case: the dead node's final counter value keeps
	// flooding for ~log2 N rounds, refreshing evidence at its receivers,
	// and only then does the staleness deadline start running — so the
	// budget is two full round budgets, not one.
	w.sim.RunFor(time.Duration(2*gossipRounds(n)) * time.Second)
	for i := 0; i < n; i++ {
		if i == 5 {
			continue
		}
		if members := w.daemon(i).Members(); len(members) != n-1 || contains64(members, 5) {
			t.Fatalf("daemon %d still sees crashed node: %v", i, members)
		}
	}
	if _, ok := w.log.Query().Kind(metrics.KMemberLeave).Node(5).After(crashAt).First(); !ok {
		t.Fatal("no member-leave event for the crashed node")
	}
	w.machines[5].Restart()
	w.sim.RunFor(time.Duration(2*gossipRounds(n)) * time.Second)
	if !allInOneGroup(w, fullGroup(n)) {
		t.Fatalf("restarted node not readmitted: %v\n%s", w.groupSizes(), w.log.Dump())
	}
}

// TestGossipLinkFlapSplinterRejoin64: at N=64, a flapping link isolates
// node 7 long enough each cycle to genuinely exceed the staleness
// deadline, then heals mid-detection. After the flap ends the full
// 64-node view must reconverge — the scale-out analogue of the ring
// protocol's splinter-repair property.
func TestGossipLinkFlapSplinterRejoin64(t *testing.T) {
	if testing.Short() {
		t.Skip("64-node flap run in -short mode")
	}
	const n = 64
	w := newGossipWorld(t, n)
	w.sim.RunFor(time.Duration(gossipRounds(n)+2) * time.Second)
	if !allInOneGroup(w, fullGroup(n)) {
		t.Fatalf("cold start not converged: %v", w.groupSizes())
	}
	flapStart := w.sim.Now()
	in := faults.NewInjector(w.sim, w.log, faults.Targets{
		Net:      w.net,
		Machines: w.machines,
		AppProc:  "membd",
	})
	// Down span 18 s: the 9-round (9 s) staleness deadline at N=64 plus
	// the ~6 rounds the node's final counter value keeps flooding (each
	// hop refreshes evidence at its receiver), so each cycle produces a
	// real exclusion; the 4 s heal lands while the drop is still
	// disseminating.
	a, err := in.InjectFlap(faults.LinkDown, 7, faults.Flap{On: 18 * time.Second, Off: 4 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	w.sim.RunFor(44 * time.Second) // two full flap cycles
	if err := a.Repair(); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.log.Query().Kind(metrics.KMemberLeave).Node(7).After(flapStart).First(); !ok {
		t.Fatalf("link flap never caused an exclusion\n%s", w.log.Dump())
	}
	w.sim.RunFor(time.Duration(2*gossipRounds(n)) * time.Second)
	if !allInOneGroup(w, fullGroup(n)) {
		t.Fatalf("64-node group did not reconverge after link flap: %v", w.groupSizes())
	}
}

// TestGossipNodeDownHint: the application's NodeDown hint discards the
// evidence for the node so it leaves the view immediately, and the next
// digest from its (healthy) daemon readmits it — gossip mode's version
// of the §4.4 flapping raw material.
func TestGossipNodeDownHint(t *testing.T) {
	const n = 8
	w := newGossipWorld(t, n)
	w.sim.RunFor(time.Duration(gossipRounds(n)+2) * time.Second)
	var cl *membership.Client
	w.machines[0].AddProc("app", func(env *machine.Env) {
		cl = membership.NewClient(env, w.pubs[0], time.Second)
	})
	w.sim.RunFor(time.Second)
	cl.NodeDown(2)
	w.sim.RunFor(500 * time.Millisecond)
	if members := w.daemon(0).Members(); contains64(members, 2) {
		t.Fatalf("hinted node still in view %v", members)
	}
	w.sim.RunFor(time.Duration(gossipRounds(n)+2) * time.Second)
	if !allInOneGroup(w, fullGroup(n)) {
		t.Fatalf("healthy node did not rejoin after hint: %v", w.groupSizes())
	}
}

func contains64(ns []cnet.NodeID, n cnet.NodeID) bool {
	for _, m := range ns {
		if m == n {
			return true
		}
	}
	return false
}
