package harness

import (
	"bytes"
	"testing"

	"press/internal/avail"
	"press/internal/faults"
)

// assemble is runCampaign's assembly over episodes obtained some other way.
func assemble(v Version, o Options, specs []faults.Spec, eps []Episode) CampaignResult {
	camp := CampaignResult{Version: v, Opts: o}
	for i, ep := range eps {
		camp.Eps = append(camp.Eps, ep)
		camp.Loads = append(camp.Loads, avail.FaultLoad{Spec: specs[i], Tpl: ep.Tpl})
		if ep.Normal > camp.Normal {
			camp.Normal = ep.Normal
		}
		camp.Offered = ep.Offered
	}
	return camp
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
func TestCampaignForkMatchesCold(t *testing.T) {
	versions := AllMeasuredVersions()
	if testing.Short() {
		versions = []Version{VCOOP, VFME}
	}
	// Events of one Warmup+Settle at FastOptions(1)/FastSchedule().
	prefixEvents := map[Version]uint64{VCOOP: 386_654, VFME: 356_595}
	eng := NewEngine(0) // one engine: FE-X … C-MON share a saturation probe
	sched := FastSchedule().withDefaults()
	for _, v := range versions {
		t.Run(string(v), func(t *testing.T) {
			t.Parallel()
			o := FastOptions(1).withDefaults()
			specs := faults.Table1(serverCount(v, o), 2, versionTraits(v).fe)

			var coldEvents, prefix uint64
			cold := make([]Episode, len(specs))
			for i, spec := range specs {
				c := eng.Build(v, o)
				c.warmUp(sched)
				prefix = c.Sim.EventsFired()
				ep, err := episodeFrom(c, spec.Type, DefaultComponent(spec.Type), sched)
				if err != nil {
					t.Fatal(err)
				}
				cold[i] = ep
				coldEvents += c.Sim.EventsFired()
			}
			want := SerializeCampaign(assemble(v, o, specs, cold))

			w, err := eng.warm(v, o, sched)
			if err != nil {
				t.Fatal(err)
			}
			forkEvents := prefix
			forked := make([]Episode, len(specs))
			for i, spec := range specs {
				c, err := w.fork()
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
			diffCampaigns(t, "forked episodes", want, SerializeCampaign(assemble(v, o, specs, forked)))

			saved := uint64(len(specs)-1) * prefix
			if coldEvents-forkEvents != saved {
				t.Errorf("forking saved %d events, want %d episodes x %d = %d", coldEvents-forkEvents, len(specs)-1, prefix, saved)
			}
			if n, ok := prefixEvents[v]; ok && prefix != n {
				t.Errorf("one warm-up is %d events, pinned at %d", prefix, n)
			}
			t.Logf("%d episodes: %d events cold, %d forked (one warm-up = %d, %d bytes)",
				len(specs), coldEvents, forkEvents, prefix, len(w.stream))

			camp, err := eng.Campaign(v, o, sched)
			if err != nil {
				t.Fatal(err)
			}
			diffCampaigns(t, "Engine.Campaign", want, SerializeCampaign(camp))
		})
	}
}
