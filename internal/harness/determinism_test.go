package harness

import (
	"errors"
	"sync"
	"testing"

	"press/internal/faults"
)

// TestParallelDeterminism is the engine's core regression test: the same
// episode set, run serially and through a 4-worker pool, must produce
// bit-identical templates, markers and throughput numbers. Neither pass
// goes through a campaign, so every episode really is simulated twice (the
// two runs are shared with the other tests that need an all-cold
// campaign).
func TestParallelDeterminism(t *testing.T) {
	t.Parallel()
	serial, pooled := coldCampaign(VCOOP, 1), coldCampaign(VCOOP, 4)
	if serial.err != nil || pooled.err != nil {
		t.Fatal(serial.err, pooled.err)
	}
	for i, spec := range serial.specs {
		s, p := serial.eps[i], pooled.eps[i]
		if s.Tpl != p.Tpl {
			t.Errorf("%v: template differs between serial and pooled runs:\nserial: %v\npooled: %v", spec.Type, s.Tpl, p.Tpl)
		}
		if s.Markers != p.Markers {
			t.Errorf("%v: stage boundaries differ:\nserial: %+v\npooled: %+v", spec.Type, s.Markers, p.Markers)
		}
		if s.Normal != p.Normal || s.Offered != p.Offered {
			t.Errorf("%v: normal/offered differ: serial (%v, %v) pooled (%v, %v)", spec.Type, s.Normal, s.Offered, p.Normal, p.Offered)
		}
	}
}

// TestCampaignReplayByteIdentical is the whole-pipeline determinism
// regression the determinism conventions (DESIGN §8) protect: the same
// campaign, simulated twice with every episode warming a world of its own
// (once serially, once on a 4-worker engine), must serialize to
// byte-identical output, events and all. A single unordered map range or
// stray RNG draw anywhere in the pipeline flips this test.
func TestCampaignReplayByteIdentical(t *testing.T) {
	t.Parallel()
	serial, pooled := coldCampaign(VCOOP, 1), coldCampaign(VCOOP, 4)
	if serial.err != nil || pooled.err != nil {
		t.Fatal(serial.err, pooled.err)
	}
	diffCampaigns(t, "the pooled replay", serial.bytes, pooled.bytes)
	if len(serial.bytes) == 0 {
		t.Fatal("serialized campaign is empty")
	}
}

// BenchmarkCampaignEpisodes compares serial and pooled execution of the
// COOP episode set, each episode warming a world of its own. Episodes are
// never memoized, so b.N>1 genuinely re-simulates. On a multi-core machine
// the pooled variant's wall-clock is the longest episode chain instead of
// the sum (≥2x at 4 cores); ns/op is the number to compare.
func BenchmarkCampaignEpisodes(b *testing.B) {
	o := FastOptions(1)
	sched := FastSchedule()
	specs := faults.Table1(serverCount(VCOOP, o.withDefaults()), 2, versionTraits(VCOOP).fe)
	for _, bm := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"pooled", 4},
	} {
		b.Run(bm.name, func(b *testing.B) {
			eng := NewEngine(bm.workers)
			eng.Saturation(VCOOP, o)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := runEpisodes(eng, VCOOP, o, specs, sched); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// runEpisodes runs one episode per spec, each through eng.RunEpisode, all
// at once: the engine's pool bounds how many simulate together.
func runEpisodes(eng *Engine, v Version, o Options, specs []faults.Spec, sched EpisodeSchedule) ([]Episode, error) {
	eps := make([]Episode, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eps[i], errs[i] = eng.RunEpisode(v, o, spec.Type, DefaultComponent(spec.Type), sched)
		}()
	}
	wg.Wait()
	return eps, errors.Join(errs...)
}
