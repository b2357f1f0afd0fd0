package chaos

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"press/internal/avail"
	"press/internal/faults"
	"press/internal/harness"
)

// goldenPath is the checked-in dump the byte-identity test compares
// against. Regenerate with PRESS_UPDATE_GOLDEN=1 go test ./internal/chaos
// -run TestEpisodeByteIdenticalPostPooling — but only when an output
// change is intentional; the whole point of the file is that storage and
// hot-path refactors (interning, pooling) must NOT change it.
const goldenPath = "testdata/golden_coop_fme.txt"

// goldenFaults is the fixed COOP episode set rendered into the golden
// dump: one crash, one process kill, one hang — enough to exercise
// detection, failover, reintegration and the ring-broadcast path. The
// set is fixed (independent of -short) so the dump is one artifact.
var goldenFaults = []faults.Type{faults.NodeCrash, faults.AppCrash, faults.AppHang}

// goldenChaosSchedule is the fixed FME compound schedule in the dump: an
// app crash overlapping a link flap, then a solo hang long enough to
// force an FME conversion — covering membership, qmon reroute and fme
// event paths the COOP episodes do not.
func goldenChaosSchedule() Schedule {
	return Schedule{
		{At: 5 * time.Second, Fault: faults.AppCrash, Component: 1, Duration: 25 * time.Second},
		{At: 15 * time.Second, Fault: faults.LinkDown, Component: 2, Duration: 25 * time.Second,
			FlapOn: 4 * time.Second, FlapOff: 3 * time.Second},
		{At: 60 * time.Second, Fault: faults.AppHang, Component: 3, Duration: 40 * time.Second},
	}
}

// goldenSerialize produces the full dump: a three-episode COOP campaign
// serialization (templates, markers, series, every rendered event line)
// followed by a chaos Result serialization on VFME.
func goldenSerialize(t *testing.T) []byte {
	t.Helper()
	o := harness.FastOptions(1)
	sched := harness.FastSchedule()
	camp := harness.CampaignResult{Version: harness.VCOOP, Opts: o}
	eng := harness.NewEngine(0)
	for _, typ := range goldenFaults {
		ep, err := eng.RunEpisode(harness.VCOOP, o, typ, harness.DefaultComponent(typ), sched)
		if err != nil {
			t.Fatal(err)
		}
		camp.Eps = append(camp.Eps, ep)
		camp.Loads = append(camp.Loads, avail.FaultLoad{Spec: faults.Spec{Type: typ}, Tpl: ep.Tpl})
		if ep.Normal > camp.Normal {
			camp.Normal = ep.Normal
		}
		camp.Offered = ep.Offered
	}
	var b bytes.Buffer
	b.Write(harness.SerializeCampaign(camp))
	r, err := Run(eng, harness.VFME, fastOpts(1), goldenChaosSchedule(), fastRun())
	if err != nil {
		t.Fatal(err)
	}
	b.Write(r.Serialize())
	return b.Bytes()
}

// TestEpisodeByteIdenticalPostPooling asserts the complete rendered
// output of a fixed COOP campaign plus a fixed FME chaos run — every
// template, stage marker, throughput bucket and Event.String() line —
// is byte-identical to the checked-in golden dump. This is the migration
// gate for the interned event log and the pooled message records: any
// refactor that changes what an episode computes, emits, or how an event
// renders trips this test.
func TestEpisodeByteIdenticalPostPooling(t *testing.T) {
	got := goldenSerialize(t)
	if os.Getenv("PRESS_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden dump (regenerate with PRESS_UPDATE_GOLDEN=1): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("output diverges from golden dump at line %d:\ngot:  %s\nwant: %s",
				i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("output length differs from golden dump: got %d lines (%d bytes), want %d lines (%d bytes)",
		len(gl), len(got), len(wl), len(want))
}
