package harness

import (
	"testing"
	"time"

	"press/internal/faults"
)

// TestCooperationThroughputFactor verifies the paper's headline
// performance result: cooperative caching buys roughly a 3x throughput
// factor over independent servers (Figure 1a's right-hand bars).
func TestCooperationThroughputFactor(t *testing.T) {
	t.Parallel()
	o := FastOptions(1)
	eng := NewEngine(0)
	coop := eng.Saturation(VCOOP, o)
	indep := eng.Saturation(VINDEP, o)
	t.Logf("saturation: COOP=%.1f req/s INDEP=%.1f req/s factor=%.2f", coop, indep, coop/indep)
	if factor := coop / indep; factor < 2.2 || factor > 4.2 {
		t.Fatalf("cooperation factor %.2f, want ~3", factor)
	}
	if coop < 150 {
		t.Fatalf("COOP saturation %.1f suspiciously low", coop)
	}
}

// TestFaultFreeAvailability: at 90% load with no faults, every measured
// version must serve essentially everything.
func TestFaultFreeAvailability(t *testing.T) {
	t.Parallel()
	versions := []Version{VCOOP, VINDEP, VFEX, VFME}
	if testing.Short() {
		versions = []Version{VCOOP, VFME}
	}
	for _, v := range versions {
		v := v
		t.Run(string(v), func(t *testing.T) {
			t.Parallel()
			o := FastOptions(1)
			c := NewEngine(0).Build(v, o)
			c.Gen.Start()
			c.Sim.RunFor(o.Warmup + 120*time.Second)
			av := c.Rec.Availability(o.Warmup+20*time.Second, c.Sim.Now()-10*time.Second)
			if av < 0.995 {
				t.Fatalf("fault-free availability %.4f (failed=%d connect=%d complete=%d)",
					av, c.Rec.Failed, c.Rec.ConnectFailures, c.Rec.CompleteFailures)
			}
			if !c.Reintegrated() {
				t.Fatal("cluster not whole after warmup")
			}
		})
	}
}

// TestEpisodeCOOPDiskFault reproduces Figure 4's structure: the disk
// fault wedges the whole cooperative cluster (stage A at ~zero
// throughput), the ring eventually excludes the sick node, the survivors
// recover partially, and the system needs an operator reset because the
// stalled node cannot rejoin by itself.
func TestEpisodeCOOPDiskFault(t *testing.T) {
	t.Parallel()
	ep, err := NewEngine(0).RunEpisode(VCOOP, FastOptions(1), faults.SCSITimeout, 2, FastSchedule())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("normal=%.1f markers=%+v\n%s", ep.Normal, ep.Markers, ep.Tpl)
	if ep.Normal < 100 {
		t.Fatalf("normal throughput %.1f too low", ep.Normal)
	}
	// Stage A must be a deep cluster-wide degradation.
	a := ep.Tpl.Throughputs[0]
	if a > 0.35*ep.Normal {
		t.Fatalf("stage A throughput %.1f of normal %.1f; cluster did not wedge", a, ep.Normal)
	}
	if ep.Markers.Detect == ep.Markers.Fault {
		t.Fatal("disk fault never detected")
	}
	if !ep.Tpl.NeedsReset {
		t.Fatal("COOP reintegrated after a disk fault without an operator")
	}
}

// TestEpisodeCOOPNodeCrash: crashes are inside the base fault model, so
// after repair the node rejoins without an operator.
func TestEpisodeCOOPNodeCrash(t *testing.T) {
	t.Parallel()
	ep, err := NewEngine(0).RunEpisode(VCOOP, FastOptions(1), faults.NodeCrash, 1, FastSchedule())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("markers=%+v\n%s", ep.Markers, ep.Tpl)
	if ep.Tpl.NeedsReset {
		t.Fatal("node crash should self-heal in COOP")
	}
	// Detection comes from heartbeat loss: between 2 and 5 periods.
	d := ep.Markers.Detect - ep.Markers.Fault
	if d < 10*time.Second || d > 30*time.Second {
		t.Fatalf("detection latency %v, want ~15s", d)
	}
}

// TestEpisodeFMEDiskFault: with FME the disk fault is translated into a
// node-offline, the front-end masks the node, and after the disk repair
// the node boots and rejoins — no operator needed.
func TestEpisodeFMEDiskFault(t *testing.T) {
	t.Parallel()
	ep, err := NewEngine(0).RunEpisode(VFME, FastOptions(1), faults.SCSITimeout, 2, FastSchedule())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("markers=%+v\n%s", ep.Markers, ep.Tpl)
	if ep.Tpl.NeedsReset {
		t.Fatal("FME version needed an operator for a disk fault")
	}
	// Stage C (fault present, node offline, FE masking) must be far
	// better than COOP's wedged stage A.
	c := ep.Tpl.Throughputs[2]
	if c < 0.7*ep.Normal {
		t.Fatalf("FME stage C throughput %.1f of normal %.1f; masking ineffective", c, ep.Normal)
	}
}

// TestEpisodeINDEPDiskFaultLocalized: in the independent version the same
// fault costs at most one node's share.
func TestEpisodeINDEPDiskFaultLocalized(t *testing.T) {
	t.Parallel()
	ep, err := NewEngine(0).RunEpisode(VINDEP, FastOptions(1), faults.SCSITimeout, 2, FastSchedule())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("markers=%+v\n%s", ep.Markers, ep.Tpl)
	for s := 0; s < 7; s++ {
		if d := ep.Tpl.Durations[s]; d > 0 {
			if tp := ep.Tpl.Throughputs[s]; tp < 0.6*ep.Normal {
				t.Fatalf("stage %d throughput %.1f of %.1f: INDEP lost more than one node's share", s, tp, ep.Normal)
			}
		}
	}
}
