package chaos

import (
	"testing"
	"time"

	"press/internal/harness"
)

// scaleOpts64 is the 64-node Scalable-suite chaos profile: explicit
// offered load (no saturation probe) and the short warmup the -short CI
// tier can afford.
func scaleOpts64(seed int64) harness.Options {
	o := harness.FastOptions(seed)
	o.Nodes = 64
	o.Protocol = harness.Scalable
	o.Rate = 2560 // 40 req/s per node
	o.Warmup = 60 * time.Second
	return o
}

// TestScalableChaosCampaign64 is the short tier's scale campaign: 8 seeded
// multi-fault schedules against a 64-node COOP cluster on the Scalable
// protocol suite (sharded directory + hash routing), judged by the
// standing invariant catalog. The horizon is trimmed so the whole
// campaign fits the -short tier even on one core.
func TestScalableChaosCampaign64(t *testing.T) {
	cfg := CampaignConfig{
		Seeds: Seeds(8),
		Gen: GenConfig{
			Horizon:   time.Minute,
			MinActive: 15 * time.Second,
			MaxActive: 40 * time.Second,
			MaxFaults: 6,
		},
		Run: fastRun(),
	}
	sum := RunCampaign(harness.NewEngine(0), harness.VCOOP, scaleOpts64(1), cfg)
	for _, oc := range sum.Outcomes {
		if oc.Err != nil {
			t.Fatalf("seed %d: %v", oc.Seed, oc.Err)
		}
		if oc.Violated() {
			t.Fatalf("seed %d violated: %v\nschedule:\n%s", oc.Seed, oc.Violations, oc.Schedule)
		}
		if oc.Result.Availability <= 0 {
			t.Fatalf("seed %d: no availability measured", oc.Seed)
		}
	}
}
