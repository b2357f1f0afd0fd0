package harness

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"press/internal/faults"
)

// coldRun is one all-cold campaign: every episode warms a world of its
// own. Several tests hold something against the one at FastOptions(1)/
// FastSchedule(), so that one is simulated once per (version, workers)
// and test binary (coldCampaign).
type coldRun struct {
	o     Options
	sched EpisodeSchedule
	specs []faults.Spec
	eps   []Episode
	bytes []byte // SerializeCampaign of the assembled episodes
	err   error

	// Of the serial run only, whose worlds the test drives itself: the
	// events all its kernels fired, how many of them one warm-up is, and
	// the charge ends one warm-up never scheduled.
	events, prefix, unscheduled uint64
}

var coldRuns struct {
	sync.Mutex
	engines map[Version]*Engine
	runs    map[string]func() *coldRun
}

// sharedEngine is the one engine the tests that measure version v at
// FastOptions(1)/FastSchedule() share, so that v's saturation probe and
// v's campaign are simulated once per test binary, whichever test asks
// first. It is per version because the probe must be v's own, as in the
// benchmark: FE-X … C-MON share a saturation memo key, and whichever of
// them probed first would set the others' offered load.
func sharedEngine(v Version) *Engine {
	coldRuns.Lock()
	defer coldRuns.Unlock()
	if coldRuns.engines == nil {
		coldRuns.engines = map[Version]*Engine{}
	}
	if coldRuns.engines[v] == nil {
		coldRuns.engines[v] = NewEngine(0)
	}
	return coldRuns.engines[v]
}

// coldCampaign returns v's all-cold campaign, its episodes simulated
// workers at a time.
func coldCampaign(v Version, workers int) *coldRun {
	key := fmt.Sprintf("%s/%d", v, workers)
	coldRuns.Lock()
	if coldRuns.runs == nil {
		coldRuns.runs = map[string]func() *coldRun{}
	}
	run := coldRuns.runs[key]
	if run == nil {
		run = sync.OnceValue(func() *coldRun { return simulateCold(v, FastOptions(1), FastSchedule(), workers) })
		coldRuns.runs[key] = run
	}
	coldRuns.Unlock()
	return run()
}

func simulateCold(v Version, o Options, sched EpisodeSchedule, workers int) *coldRun {
	r := &coldRun{o: o.withDefaults(), sched: sched.withDefaults()}
	r.specs = faults.Table1(serverCount(v, r.o), 2, versionTraits(v).fe)
	if workers > 1 {
		r.eps, r.err = runEpisodes(NewEngine(workers), v, r.o, r.specs, r.sched)
	} else {
		eng := sharedEngine(v)
		for _, spec := range r.specs {
			c := eng.Build(v, r.o)
			c.warmUp(r.sched)
			r.prefix = c.Sim.EventsFired()
			r.unscheduled = 0
			for _, m := range c.machines() {
				r.unscheduled += m.UnscheduledChargeEnds()
			}
			ep, err := episodeFrom(c, spec.Type, DefaultComponent(spec.Type), r.sched)
			if err != nil {
				r.err = err
				break
			}
			r.eps = append(r.eps, ep)
			r.events += c.Sim.EventsFired()
		}
	}
	if r.err == nil {
		r.bytes = SerializeCampaign(assemble(v, r.o, r.specs, r.eps))
	}
	return r
}

func diffCampaigns(t *testing.T, what string, want, got []byte) {
	t.Helper()
	if bytes.Equal(want, got) {
		return
	}
	a, b := string(want), string(got)
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			lo := max(0, i-160)
			t.Fatalf("%s diverges from the all-cold campaign at byte %d:\ncold: ...%s\ngot:  ...%s",
				what, i, a[lo:min(len(a), i+160)], b[lo:min(len(b), i+160)])
		}
	}
	t.Fatalf("%s: %d bytes, the all-cold campaign %d", what, len(got), len(want))
}

// TestCampaignForkMatchesCold holds the campaign's shortcut to the thing it
// replaces. For each measured version and every Table-1 fault that applies
// to it, the episode run on a fork of the campaign's one warm world must
// serialize — loads, templates, markers, series, the whole event log — to
// the bytes of the episode that warmed a world of its own; Engine.Campaign
// must return exactly those; and the events the kernels fired must drop by
// what was not simulated again: (episodes-1) warm-ups, to the event.
//
// COOP and FME, the benchmark's two, run the fast profile the issue's
// counts were taken at, in both tiers, and are also held against
// Engine.Campaign itself. The other eight run in the full tier only, at a
// fixed third of the load (no saturation probe) on a ramp and observation
// windows half as long: the same faults over the same walks for a sixth
// of the events.
func TestCampaignForkMatchesCold(t *testing.T) {
	versions := AllMeasuredVersions()
	if testing.Short() {
		versions = []Version{VCOOP, VFME}
	}
	// Events of one Warmup+Settle at FastOptions(1)/FastSchedule(), the
	// charge ends no process needed included: the warm-up fires that many
	// less the ones its machines count as never scheduled.
	prefixEvents := map[Version]uint64{VCOOP: 386_654, VFME: 356_595}
	for _, v := range versions {
		t.Run(string(v), func(t *testing.T) {
			t.Parallel()
			var cold *coldRun
			_, pinned := prefixEvents[v]
			if pinned {
				cold = coldCampaign(v, 1)
			} else {
				o := FastOptions(1)
				o.Rate, o.Warmup = 100, time.Minute
				cold = simulateCold(v, o, EpisodeSchedule{Settle: 20 * time.Second, FaultActive: 40 * time.Second,
					ObserveRepair: 25 * time.Second, ResetLimit: 30 * time.Second, ObserveG: 20 * time.Second}, 1)
			}
			if cold.err != nil {
				t.Fatal(cold.err)
			}
			o, sched, specs, prefix := cold.o, cold.sched, cold.specs, cold.prefix
			eng := sharedEngine(v)

			w, err := eng.warm(v, o, sched)
			if err != nil {
				t.Fatal(err)
			}
			forkEvents := prefix
			forked := make([]Episode, len(specs))
			for i, spec := range specs {
				c, err := w.Restore(nil)
				if err != nil {
					t.Fatal(err)
				}
				if got := c.Sim.EventsFired(); got != prefix {
					t.Fatalf("fork stands at %d events fired, the world it was captured from at %d", got, prefix)
				}
				if forked[i], err = episodeFrom(c, spec.Type, DefaultComponent(spec.Type), sched); err != nil {
					t.Fatal(err)
				}
				forkEvents += c.Sim.EventsFired() - prefix
			}
			diffCampaigns(t, "forked episodes", cold.bytes, SerializeCampaign(assemble(v, o, specs, forked)))

			saved := uint64(len(specs)-1) * prefix
			if cold.events-forkEvents != saved {
				t.Errorf("forking saved %d events, want %d episodes x %d = %d", cold.events-forkEvents, len(specs)-1, prefix, saved)
			}
			if pinned && prefix+cold.unscheduled != prefixEvents[v] {
				t.Errorf("one warm-up is %d events and %d unscheduled charge ends, pinned at %d together",
					prefix, cold.unscheduled, prefixEvents[v])
			}
			t.Logf("%d episodes: %d events cold, %d forked (one warm-up = %d + %d unscheduled, %d bytes)",
				len(specs), cold.events, forkEvents, prefix, cold.unscheduled, w.Size())

			if !pinned {
				return
			}
			camp, err := eng.Campaign(v, o, sched)
			if err != nil {
				t.Fatal(err)
			}
			diffCampaigns(t, "Engine.Campaign", cold.bytes, SerializeCampaign(camp))
		})
	}
}
