package harness

import (
	"testing"

	"press/internal/faults"
)

// TestParallelDeterminism is the engine's core regression test: the same
// episode set, run serially and through a 4-worker pool, must produce
// bit-identical templates, markers and throughput numbers. Both passes
// bypass the memo, so every episode really is simulated twice (the two
// runs are shared with the other tests that need an all-cold campaign).
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
// campaign, simulated twice (memo bypassed; once serially, once with a
// 4-way pool active), must serialize to byte-identical output, events
// and all. A single unordered map range or stray RNG draw anywhere in
// the pipeline flips this test.
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

// TestEpisodeMemoSingleflight fires concurrent requests for one episode:
// all callers must receive the same underlying run (shared Series
// pointer), i.e. the episode simulated once, not five times.
func TestEpisodeMemoSingleflight(t *testing.T) {
	o := FastOptions(1)
	sched := FastSchedule()
	const callers = 5
	eng := NewEngine(0)
	eps := make([]Episode, callers)
	errs := make([]error, callers)
	done := make(chan int, callers)
	for i := 0; i < callers; i++ {
		i := i
		go func() {
			eps[i], errs[i] = eng.RunEpisode(VCOOP, o, faults.NodeCrash, 1, sched)
			done <- i
		}()
	}
	for i := 0; i < callers; i++ {
		<-done
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if eps[i].Series != eps[0].Series {
			t.Fatalf("caller %d got a distinct simulation (Series pointers differ): memo did not singleflight", i)
		}
		if eps[i].Tpl != eps[0].Tpl {
			t.Fatalf("caller %d got a different template", i)
		}
	}
}

// TestCampaignMatchesEpisodes: a campaign assembled on the pool must be
// exactly the per-spec episodes in Table 1 order.
func TestCampaignMatchesEpisodes(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	t.Parallel()
	o := FastOptions(1)
	sched := FastSchedule()
	eng := sharedEngine(VCOOP)
	camp, err := eng.Campaign(VCOOP, o, sched)
	if err != nil {
		t.Fatal(err)
	}
	specs := faults.Table1(serverCount(VCOOP, o.withDefaults()), 2, versionTraits(VCOOP).fe)
	if len(camp.Eps) != len(specs) {
		t.Fatalf("campaign has %d episodes, want %d", len(camp.Eps), len(specs))
	}
	for i, spec := range specs {
		if camp.Loads[i].Spec.Type != spec.Type {
			t.Fatalf("load %d is %v, want %v (order not preserved)", i, camp.Loads[i].Spec.Type, spec.Type)
		}
		ep, err := eng.RunEpisode(VCOOP, o, spec.Type, DefaultComponent(spec.Type), sched)
		if err != nil {
			t.Fatal(err)
		}
		if camp.Eps[i].Tpl != ep.Tpl {
			t.Fatalf("%v: campaign episode differs from direct (memoized) episode", spec.Type)
		}
	}
}

// BenchmarkCampaignEpisodes compares serial and pooled execution of the
// COOP episode set, bypassing the memo, so b.N>1 genuinely re-simulates.
// On a multi-core machine the pooled variant's wall-clock is the longest
// episode chain instead of the sum (≥2x at 4 cores); ns/op is the number
// to compare.
func BenchmarkCampaignEpisodes(b *testing.B) {
	o := FastOptions(1)
	sched := FastSchedule()
	specs := faults.Table1(serverCount(VCOOP, o.withDefaults()), 2, versionTraits(VCOOP).fe)
	eng := NewEngine(0)
	eng.Saturation(VCOOP, o)
	for _, bm := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"pooled", 4},
	} {
		b.Run(bm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.episodesUncached(VCOOP, o, specs, sched, bm.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
