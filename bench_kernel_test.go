// Kernel-facing benchmarks: one fault-injection episode, one chaos
// campaign and one seed forked from a warm capture, none memoized, so
// ns/op and allocs/op track the real cost of simulating. BenchmarkKernel
// (internal/sim) covers the raw event loop; cmd/pressbench is where
// performance numbers are taken.
//
// Run with -benchtime=1x: a single iteration is a full simulation.
package press_test

import (
	"testing"
	"time"

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

// BenchmarkForkSeed measures one chaos seed forked from a warm COOP
// capture, as pressbench's forkchaos forks its 128: the world warmed once
// outside the loop, then a campaign of b.N copies of the same seed, so
// each op is one restore, one schedule played and checked, and what the
// outcome keeps.
func BenchmarkForkSeed(b *testing.B) {
	o := press.FastOptions(benchSeed)
	o.Rate = 100
	o.Warmup = 10 * time.Minute
	cfg := press.ChaosCampaignConfig{
		Gen: press.ChaosGenConfig{Horizon: time.Minute, MinActive: 15 * time.Second, MaxActive: 40 * time.Second, MaxFaults: 6},
		Run: press.ChaosRunConfig{Settle: 10 * time.Second, DrainGrace: 45 * time.Second, ResetLimit: 60 * time.Second, FinalObserve: 15 * time.Second},
	}
	snap, err := press.WarmChaosSnapshot(press.COOP, o, cfg.Run)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Seeds = make([]int64, b.N)
	for i := range cfg.Seeds {
		cfg.Seeds[i] = benchSeed
	}
	b.ReportAllocs()
	b.ResetTimer()
	sum, err := press.RunChaosCampaignFromSnapshot(snap, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, oc := range sum.Outcomes {
		if oc.Err != nil {
			b.Fatal(oc.Err)
		}
	}
}
