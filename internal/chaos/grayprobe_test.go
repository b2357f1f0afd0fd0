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
