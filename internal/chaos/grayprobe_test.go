package chaos

import (
	"fmt"
	"os"
	"testing"
	"time"

	"press/internal/faults"
	"press/internal/harness"
	"press/internal/metrics"
)

// TestGrayExperimentProbe is a data-collection probe, not a gate: run
// with PRESS_GRAY_PROBE=1 to print, per version and gray class, what the
// detectors made of an isolated 60s gray fault.
func TestGrayExperimentProbe(t *testing.T) {
	if os.Getenv("PRESS_GRAY_PROBE") == "" {
		t.Skip("set PRESS_GRAY_PROBE=1 to run the gray detection probe")
	}
	versions := []harness.Version{harness.VINDEP, harness.VCOOP, harness.VMQ, harness.VFME}
	cases := []struct {
		name  string
		sched Schedule
	}{
		{"node-slow", Schedule{{At: 10 * time.Second, Fault: faults.NodeSlow, Component: 1, Duration: 60 * time.Second}}},
		{"node-slow-8x", Schedule{{At: 10 * time.Second, Fault: faults.NodeSlow, Component: 1, Duration: 60 * time.Second, Severity: 8}}},
		{"link-lossy", Schedule{{At: 10 * time.Second, Fault: faults.LinkLossy, Component: 1, Duration: 60 * time.Second}}},
		{"link-lossy-flap", Schedule{{At: 10 * time.Second, Fault: faults.LinkLossy, Component: 1, Duration: 60 * time.Second,
			FlapOn: 5 * time.Second, FlapOff: 3 * time.Second}}},
		{"disk-degraded", Schedule{{At: 10 * time.Second, Fault: faults.DiskDegraded, Component: 2, Duration: 60 * time.Second}}},
	}
	for _, v := range versions {
		for _, tc := range cases {
			r, err := Run(harness.NewEngine(0), v, fastOpts(1), tc.sched, fastRun())
			if err != nil {
				t.Fatalf("%v/%s: %v", v, tc.name, err)
			}
			e := tc.sched[0]
			node := grayNode(e)
			winFrom, winTo := r.Start+e.At, r.Start+e.End()
			var seen []string
			for _, kind := range detectionKinds {
				if ev, ok := r.Log.Query().Kind(kind).Node(node).After(winFrom).
					FirstWhere(func(ev metrics.Event) bool { return ev.At <= winTo }); ok {
					seen = append(seen, fmt.Sprintf("%s@+%s", kind, (ev.At-winFrom).Round(time.Second)))
				}
			}
			viol := ""
			for _, inv := range []Invariant{GrayDetected(45 * time.Second), NoFalseEviction()} {
				if d := inv.Check(&r); d != "" {
					viol += " [" + inv.Name + " FAILS]"
				}
			}
			fmt.Printf("%-6s %-16s avail=%.4f detects=%v%s\n", v, tc.name, r.Availability, seen, viol)
		}
	}
}

// grayNode maps a gray schedule entry to the node it degrades.
func grayNode(e Entry) int {
	if e.Fault == faults.DiskDegraded {
		return e.Component / 2
	}
	return e.Component
}

// soloGray visits every steady gray entry of at least minSpan whose
// active window no other entry overlaps — the only entries whose
// detection behavior is attributable to one fault.
func soloGray(r *Result, minSpan time.Duration, visit func(e Entry)) {
	for i, e := range r.Schedule {
		if !faults.Gray(e.Fault) || e.Flapping() || e.Duration < minSpan {
			continue
		}
		solo := true
		for j, f := range r.Schedule {
			if i != j && e.At < f.End() && f.At < e.End() {
				solo = false
				break
			}
		}
		if solo {
			visit(e)
		}
	}
}

// detectionKinds are the event classes that count as "some subsystem
// noticed this node": heartbeat/probe detection, membership removal,
// cooperation-view exclusion, and the queue monitor's two verdicts.
var detectionKinds = []metrics.KindID{
	metrics.KDetect, metrics.KExclude, metrics.KMemberLeave,
	metrics.KQMonReroute, metrics.KQMonFail, metrics.KFMEAction,
}

// GrayDetected: every isolated, steady gray fault lasting at least the
// bound must draw SOME detection-class event naming the degraded node
// within that bound. This is the gray-detection-latency question the
// paper leaves open — its detectors (heartbeats, FME probes, TCP errors)
// are all binary, so this invariant legitimately fails on versions whose
// only gray signal is the queue monitor. Not in DefaultInvariants: the
// gray probe above uses it to measure which subsystems see partial
// degradation at all.
func GrayDetected(bound time.Duration) Invariant {
	return Invariant{
		Name: "gray-detected",
		Doc:  fmt.Sprintf("every isolated gray fault is noticed by some detector within %s", bound),
		Check: func(r *Result) string {
			var missed []string
			soloGray(r, bound, func(e Entry) {
				node := grayNode(e)
				winFrom, winTo := r.Start+e.At, r.Start+e.At+bound
				for _, kind := range detectionKinds {
					if _, ok := r.Log.Query().Kind(kind).Node(node).After(winFrom).
						FirstWhere(func(ev metrics.Event) bool { return ev.At <= winTo }); ok {
						return
					}
				}
				missed = append(missed, fmt.Sprintf("%s: node %d undetected within %s", e, node, bound))
			})
			if len(missed) == 0 {
				return ""
			}
			return fmt.Sprintf("%d undetected gray faults: %v", len(missed), missed)
		},
	}
}

// NoFalseEviction: a node whose only fault is NodeSlow — degraded but
// alive, answering every probe — must not be evicted from membership or
// declared failed outright; the graceful response is rerouting
// (qmon.reroute), not exclusion. A violation means some subsystem
// translated "slow" into "dead", the gray misclassification the
// Beowulf performability literature warns about. Not in
// DefaultInvariants; the gray probe above checks it.
func NoFalseEviction() Invariant {
	evict := []metrics.KindID{metrics.KExclude, metrics.KMemberLeave, metrics.KQMonFail}
	return Invariant{
		Name: "no-false-eviction",
		Doc:  "a merely-slow node is rerouted around, never evicted or declared failed",
		Check: func(r *Result) string {
			var evicted []string
			soloGray(r, 0, func(e Entry) {
				if e.Fault != faults.NodeSlow {
					return
				}
				node := grayNode(e)
				winFrom, winTo := r.Start+e.At, r.Start+e.End()
				for _, kind := range evict {
					if ev, ok := r.Log.Query().Kind(kind).Node(node).After(winFrom).
						FirstWhere(func(ev metrics.Event) bool { return ev.At <= winTo }); ok {
						evicted = append(evicted, fmt.Sprintf("%s: node %d hit %s at %s", e, node, kind, ev.At))
						return
					}
				}
			})
			if len(evicted) == 0 {
				return ""
			}
			return fmt.Sprintf("%d false evictions: %v", len(evicted), evicted)
		},
	}
}
