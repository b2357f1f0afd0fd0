package qmon

// Gray-failure regression pins. A lossy link does not stop a peer's
// queue — it slows the drain of EVERY message class at once, so the
// total length climbs while the request count lags behind. The monitor's
// two failure thresholds were calibrated for the paper's binary faults
// (a dead peer stops draining requests first); these tests pin how the
// dual-threshold design actually behaves under partial degradation, and
// EXPERIMENTS.md records the mishandling they demonstrate.

import "testing"

// TestLossyPeerSkipsRerouteStage: under a lossy link the all-types
// backlog (data forwards, cache announcements, retransmission doubles)
// reaches TotalThreshold while requests are still below the reroute
// threshold. The monitor jumps healthy -> failed with no overloaded
// stage in between: no graceful rerouting, no probe traffic, straight to
// the eviction verdict. This is the dual-threshold gray mishandling —
// the total threshold has no reroute analogue.
func TestLossyPeerSkipsRerouteStage(t *testing.T) {
	m, ev := newMon()
	// Queue fills with non-request traffic; requests never cross 16.
	for q := 0; q <= 64; q += 4 {
		m.Observe(1, q, q/8)
	}
	if !m.Failed(1) {
		t.Fatal("peer not failed at the total threshold")
	}
	if len(*ev) != 1 || (*ev)[0] != "fail" {
		t.Fatalf("events = %v, want a bare [fail]: the total threshold has no reroute stage", *ev)
	}
}

// TestFlappingLossyPeerChurnsFailures: a lossy link that flaps (the
// chaos generator's intermittent variant) drains fully during off
// phases, and the membership layer re-admits the peer (ClearFailed).
// Each on phase then re-fails it — with zero reroute events ever. The
// hysteresis band only guards the reroute/recover edge; the
// failure verdict has none, so a flapping lossy peer turns into
// fail/re-admit churn instead of settling into the rerouting regime.
func TestFlappingLossyPeerChurnsFailures(t *testing.T) {
	m, ev := newMon()
	fails := 0
	for cycle := 0; cycle < 5; cycle++ {
		// On phase: total climbs to the threshold, requests stay low.
		for q := 0; q <= 64; q += 4 {
			m.Observe(1, q, q/8)
		}
		if !m.Failed(1) {
			t.Fatalf("cycle %d: peer not failed", cycle)
		}
		fails++
		// Off phase: the queue drains, membership re-admits the peer.
		m.Observe(1, 0, 0)
		m.ClearFailed(1)
	}
	if got := len(*ev); got != fails {
		t.Fatalf("%d events for %d fail cycles: %v", got, fails, *ev)
	}
	for i, e := range *ev {
		if e != "fail" {
			t.Fatalf("event %d = %q; a flapping lossy peer never earns a reroute: %v", i, e, *ev)
		}
	}
}

// TestLossyPeerRequestRampReroutesFirst is the contrast pin: when the
// degradation shows up in the REQUEST queue first (a slow node rather
// than a lossy link), the monitor does pass through the graceful
// reroute stage before failing. Gray handling is asymmetric across the
// two thresholds — this is the half that works.
func TestLossyPeerRequestRampReroutesFirst(t *testing.T) {
	m, ev := newMon()
	for q := 0; q <= 32; q++ {
		m.Observe(1, q, q)
	}
	if len(*ev) != 2 || (*ev)[0] != "reroute" || (*ev)[1] != "fail" {
		t.Fatalf("events = %v, want [reroute fail]", *ev)
	}
}
