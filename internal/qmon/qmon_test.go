package qmon

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"press/internal/cnet"
)

func newMon() (*Monitor, *[]string) {
	events := new([]string)
	cb := Callbacks{
		OnReroute: func(p cnet.NodeID) { *events = append(*events, "reroute") },
		OnRecover: func(p cnet.NodeID) { *events = append(*events, "recover") },
		OnFail:    func(p cnet.NodeID) { *events = append(*events, "fail") },
	}
	return New(cb, rand.New(rand.NewSource(1))), events
}

func TestRerouteThenFailOnRequestGrowth(t *testing.T) {
	m, ev := newMon()
	for q := 0; q <= 32; q++ {
		m.Observe(1, q, q)
	}
	if len(*ev) != 2 || (*ev)[0] != "reroute" || (*ev)[1] != "fail" {
		t.Fatalf("events = %v", *ev)
	}
	if !m.Failed(1) {
		t.Fatal("peer not failed")
	}
}

func TestTotalThresholdAloneFails(t *testing.T) {
	m, ev := newMon()
	// Queue full of non-request messages (e.g. cache announcements).
	m.Observe(2, 64, 0)
	if len(*ev) != 1 || (*ev)[0] != "fail" {
		t.Fatalf("events = %v", *ev)
	}
}

func TestRecoveryOnDrain(t *testing.T) {
	m, ev := newMon()
	m.Observe(1, 16, 16) // reroute
	m.Observe(1, 8, 8)   // drained to half the reroute threshold
	if len(*ev) != 2 || (*ev)[1] != "recover" {
		t.Fatalf("events = %v", *ev)
	}
	if m.Rerouting(1) {
		t.Fatal("still rerouting after recovery")
	}
}

func TestNoRecoveryUntilHalfDrain(t *testing.T) {
	m, ev := newMon()
	m.Observe(1, 16, 16)
	m.Observe(1, 12, 12) // above half threshold: still overloaded
	if len(*ev) != 1 {
		t.Fatalf("events = %v", *ev)
	}
	if !m.Rerouting(1) {
		t.Fatal("rerouting cleared too early")
	}
}

// TestFlappingPeerHysteresis: a peer whose queue oscillates across the
// reroute threshold must not thrash reroute/restore every observation —
// the half-threshold recovery rule (§5) is the hysteresis band. One
// reroute when first crossing, then silence for the whole oscillation;
// recovery only on a genuine drain below half, after which a fresh
// overload may re-arm exactly once.
func TestFlappingPeerHysteresis(t *testing.T) {
	m, ev := newMon()
	// Queue flaps 18 ⇄ 12 around the threshold (16) but never drains
	// below half (8): one reroute, zero recoveries, however long it flaps.
	for i := 0; i < 50; i++ {
		m.Observe(1, 18, 18)
		m.Observe(1, 12, 12)
	}
	if len(*ev) != 1 || (*ev)[0] != "reroute" {
		t.Fatalf("flapping peer thrashed the monitor: events = %v", *ev)
	}
	if !m.Rerouting(1) {
		t.Fatal("rerouting dropped mid-flap")
	}
	// A real drain recovers it...
	m.Observe(1, 4, 4)
	if len(*ev) != 2 || (*ev)[1] != "recover" {
		t.Fatalf("events after drain = %v", *ev)
	}
	// ...and a second flapping bout re-arms exactly once more.
	for i := 0; i < 50; i++ {
		m.Observe(1, 18, 18)
		m.Observe(1, 12, 12)
	}
	if len(*ev) != 3 || (*ev)[2] != "reroute" {
		t.Fatalf("second bout events = %v", *ev)
	}
	if m.Failed(1) {
		t.Fatal("flapping peer declared failed without crossing the failure thresholds")
	}
}

func TestFailedIsSticky(t *testing.T) {
	m, ev := newMon()
	m.Observe(1, 64, 64)
	m.Observe(1, 0, 0) // drained (e.g. conn torn down): verdict must hold
	if m.Failed(1) != true {
		t.Fatal("failure verdict not sticky")
	}
	if len(*ev) != 1 {
		t.Fatalf("events = %v", *ev)
	}
}

func TestClearFailedReadmits(t *testing.T) {
	m, _ := newMon()
	m.Observe(1, 64, 64)
	m.ClearFailed(1)
	if m.Failed(1) || m.Rerouting(1) {
		t.Fatal("ClearFailed did not reset state")
	}
	// And it can fail again — the MQ flapping loop.
	m.Observe(1, 64, 64)
	if !m.Failed(1) {
		t.Fatal("peer cannot re-fail after ClearFailed")
	}
}

func TestShouldRerouteProbeFraction(t *testing.T) {
	m, _ := newMon()
	m.Observe(1, 20, 20) // overloaded
	sent := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if !m.ShouldReroute(1) {
			sent++
		}
	}
	frac := float64(sent) / n
	if frac < 0.02 || frac > 0.10 {
		t.Fatalf("probe fraction %v, want ~0.05", frac)
	}
}

func TestShouldRerouteStates(t *testing.T) {
	m, _ := newMon()
	if m.ShouldReroute(1) {
		t.Fatal("healthy peer rerouted")
	}
	m.Observe(1, 64, 64)
	if !m.ShouldReroute(1) {
		t.Fatal("failed peer not rerouted")
	}
}

func TestForgetResets(t *testing.T) {
	m, _ := newMon()
	m.Observe(1, 64, 64)
	m.Forget(1)
	if m.Failed(1) {
		t.Fatal("state survived Forget")
	}
}

// TestThresholdEdges: each threshold — the paper's 512 / 256 / 128
// scaled to 64 / 32 / 16 (§4.3) — acts at its value and not one below.
func TestThresholdEdges(t *testing.T) {
	for _, tc := range []struct {
		total, requests int
		want            string
	}{
		{TotalThreshold - 1, 0, ""},
		{TotalThreshold, 0, "fail"},
		{RerouteThreshold - 1, RerouteThreshold - 1, ""},
		{RerouteThreshold, RerouteThreshold, "reroute"},
		{RequestThreshold - 1, RequestThreshold - 1, "reroute"},
		{RequestThreshold, RequestThreshold, "fail"},
	} {
		m, ev := newMon()
		m.Observe(1, tc.total, tc.requests)
		if got := strings.Join(*ev, ","); got != tc.want {
			t.Errorf("Observe(total %d, requests %d): events %q, want %q", tc.total, tc.requests, got, tc.want)
		}
	}
}

// Property: for any observation sequence, the monitor never reports fail
// without the thresholds actually being crossed at that observation, and
// reroute implies the request threshold was crossed at some prior point.
func TestQuickThresholdSoundness(t *testing.T) {
	f := func(obs []uint8) bool {
		failedAt := -1
		m := New(Callbacks{
			OnFail: func(cnet.NodeID) {
				if failedAt == -2 {
					return
				}
				failedAt = -2
			},
		}, rand.New(rand.NewSource(2)))
		for i, o := range obs {
			total := int(o)
			req := total / 2
			m.Observe(7, total, req)
			if m.Failed(7) && failedAt == -1 {
				return false // Failed without OnFail having fired
			}
			if m.Failed(7) {
				// Soundness: some observation so far crossed a threshold.
				crossed := false
				for _, p := range obs[:i+1] {
					if int(p) >= TotalThreshold || int(p)/2 >= RequestThreshold {
						crossed = true
					}
				}
				if !crossed {
					return false
				}
				return true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
