// Kernel-facing benchmarks: one fault-injection episode and one chaos
// campaign, neither memoized, so ns/op and allocs/op track the real
// cost of simulating. BenchmarkKernel (internal/sim) covers the raw event
// loop; cmd/pressbench is where performance numbers are taken.
//
// Run with -benchtime=1x: a single iteration is a full simulation.
package press_test

import (
	"testing"

	"press"
)

// BenchmarkEpisode measures one COOP app-crash episode end to end —
// build, warmup, inject, repair, template extraction — on a private
// Cluster handle, which simulates every episode it is asked for. The
// 90%-of-saturation load probe is resolved once outside the loop so
// iterations time episode simulation only.
func BenchmarkEpisode(b *testing.B) {
	o := press.FastOptions(benchSeed)
	o.Rate = 0.9 * press.New(press.WithVersion(press.COOP), press.WithOptions(o)).Saturation()
	c := press.New(press.WithVersion(press.COOP), press.WithOptions(o))
	sched := press.FastSchedule()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RunEpisode(press.AppCrash, 0, sched); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChaosCampaign measures a 2-seed chaos campaign against FME on
// the reduced-scale profile. A package-level call caches nothing, so each
// iteration simulates the whole campaign, saturation probe included.
func BenchmarkChaosCampaign(b *testing.B) {
	o := press.FastOptions(benchSeed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := press.RunChaosCampaign(press.FME, o, press.ChaosCampaignConfig{
			Seeds: press.ChaosSeeds(2),
		})
		for _, oc := range sum.Outcomes {
			if oc.Err != nil {
				b.Fatal(oc.Err)
			}
		}
	}
}
