package harness

import (
	"fmt"
	"testing"
)

// TestSaturationMemoKeySharesWhatTheProbeDoesNot records a known defect
// without changing it (DESIGN §9, fifth entry). keyForTraits gives the
// seven front-end versions one saturation memo key, on the argument that
// capacity depends on the topology and not on which detectors are wired
// in. But the probe builds the version that asks, and the detectors act
// on the probe's deliberate overload: on an engine of its own each version
// measures the value pinned below, and FME's is half the others' (its
// daemons take overloaded servers offline, and the probe window records
// the collapse). On a shared engine the first of the seven to ask
// therefore sets every one's offered load. The fix — probe a detector-less
// build of the topology, or key by version — moves every front-end
// version's numbers and is its own change; this test fails when it lands.
func TestSaturationMemoKeySharesWhatTheProbeDoesNot(t *testing.T) {
	if testing.Short() {
		t.Skip("seven saturation probes")
	}
	o := FastOptions(1)
	want := map[Version]string{
		VFEX: "397.15", VMEM: "397.12", VQMON: "397.43", VMQ: "397.12",
		VFME: "197.25", VSFME: "364.91", VCMON: "385.23",
	}
	shared := keyForTraits(versionTraits(VFEX), o.withDefaults())
	for _, v := range []Version{VFEX, VMEM, VQMON, VMQ, VFME, VSFME, VCMON} {
		v := v
		t.Run(string(v), func(t *testing.T) {
			t.Parallel()
			if key := keyForTraits(versionTraits(v), o.withDefaults()); key != shared {
				t.Fatalf("memo key %q, FE-X's is %q: the versions no longer share a probe — update DESIGN §9 and this test", key, shared)
			}
			if got := fmt.Sprintf("%.2f", NewEngine(1).Saturation(v, o)); got != want[v] {
				t.Fatalf("private-engine saturation %s req/s, pinned %s", got, want[v])
			}
		})
	}
}
