package chaos

import (
	"fmt"
	"strings"
	"sync"

	"press/internal/harness"
)

// CampaignConfig drives a multi-seed chaos campaign.
type CampaignConfig struct {
	Seeds  []int64 // one run per seed; order is the report order
	Gen    GenConfig
	Run    RunConfig
	Shrink bool // minimize each violating schedule
}

// Seeds returns 1..n, the fixed seed set `cmd/reproduce -chaos -seeds n`
// and the CI smoke job use.
func Seeds(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

// SeedOutcome is one seed's campaign verdict. Options is the fully
// resolved option set the run used (offered load included), so a repro
// built from it replays the identical simulation.
type SeedOutcome struct {
	Seed       int64
	Options    harness.Options
	Schedule   Schedule
	Result     Result
	Violations []Violation
	Err        error

	// Filled when the campaign shrinks a violation.
	Minimal     Schedule
	MinimalViol Violation
	Stats       ShrinkStats
}

// Violated reports whether the seed broke any invariant (or failed to run).
func (s SeedOutcome) Violated() bool { return s.Err != nil || len(s.Violations) > 0 }

// CampaignSummary aggregates a campaign.
type CampaignSummary struct {
	Version  harness.Version
	Outcomes []SeedOutcome
}

// Violations counts the seeds that broke an invariant.
func (c CampaignSummary) Violations() int {
	n := 0
	for _, o := range c.Outcomes {
		if o.Violated() {
			n++
		}
	}
	return n
}

func (c CampaignSummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos campaign %s: %d seeds, %d violating\n", c.Version, len(c.Outcomes), c.Violations())
	for _, o := range c.Outcomes {
		fmt.Fprintf(&b, "  seed %-3d %d faults (%d overlapping pairs, %d skipped) avail=%.5f floor=%.5f resets=%d",
			o.Seed, len(o.Schedule), o.Schedule.Overlaps(), len(o.Result.Skipped),
			o.Result.Availability, o.Result.Floor, o.Result.Resets)
		switch {
		case o.Err != nil:
			fmt.Fprintf(&b, "  ERROR: %v", o.Err)
		case len(o.Violations) > 0:
			fmt.Fprintf(&b, "  VIOLATED %v", o.Violations)
			if len(o.Minimal) > 0 {
				fmt.Fprintf(&b, " (shrunk %d->%d entries in %d replays)",
					len(o.Schedule), len(o.Minimal), o.Stats.Runs)
			}
		default:
			b.WriteString("  ok")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RunCampaign generates and runs one schedule per seed, checks the
// invariant catalog against each, and (optionally) shrinks violations.
// Each seed reseeds the world itself as well as the fault load. Results
// are assembled in seed order and every run is a pure function of its
// seed, so the whole campaign replays bit-identically. The engine
// resolves the offered load and bounds how many runs simulate at once.
func RunCampaign(eng *harness.Engine, v harness.Version, o harness.Options, cfg CampaignConfig) CampaignSummary {
	o = resolveRate(eng, v, o)
	return runSeeds(eng, v, cfg, func(seed int64) (harness.Options, func(Schedule) (Result, error)) {
		seeded := o
		seeded.Seed = seed
		return seeded, func(s Schedule) (Result, error) { return Run(eng, v, seeded, s, cfg.Run) }
	})
}

// resolveRate pins the 90%-of-saturation load once, from a fixed-seed
// probe, so every seed of a campaign shares it (per-seed Options
// otherwise differ only in Seed, and saturation does not depend on it).
func resolveRate(eng *harness.Engine, v harness.Version, o harness.Options) harness.Options {
	if o.Rate <= 0 {
		base := o
		base.Seed = 1
		o.Rate = 0.9 * eng.Saturation(v, base)
	}
	return o
}

// runSeeds is the per-seed campaign loop. world resolves a seed to the
// options of the world its schedule plays on — what the outcome records,
// so a repro built from it replays cold to the byte-identical result — and
// to the replay that plays a schedule on that world, which runs the seed's
// generated schedule and then every candidate a shrink tries. Seeds fan
// out concurrently; each replay holds one of eng's worker-pool slots, so
// the machine never oversubscribes.
func runSeeds(eng *harness.Engine, v harness.Version, cfg CampaignConfig,
	world func(seed int64) (harness.Options, func(Schedule) (Result, error))) CampaignSummary {
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = Seeds(4)
	}
	invs := DefaultInvariants()
	sum := CampaignSummary{Version: v, Outcomes: make([]SeedOutcome, len(cfg.Seeds))}
	var wg sync.WaitGroup
	for i, seed := range cfg.Seeds {
		wg.Add(1)
		// Orchestration-only: the replays take pool slots; the launcher
		// goroutine itself never simulates.
		go func() { // bounded by the engine worker pool
			defer wg.Done()
			oc := &sum.Outcomes[i]
			oc.Seed = seed
			var play func(Schedule) (Result, error)
			oc.Options, play = world(seed)
			replay := func(s Schedule) (r Result, err error) {
				eng.WithSlot(func() { r, err = play(s) })
				return r, err
			}
			oc.Schedule = Generate(seed, v, oc.Options, cfg.Gen)
			if oc.Result, oc.Err = replay(oc.Schedule); oc.Err != nil {
				return
			}
			oc.Violations = Check(&oc.Result, invs)
			if len(oc.Violations) > 0 && cfg.Shrink {
				min, viol, stats, err := Shrink(replay, oc.Schedule, invs)
				if err == nil {
					oc.Minimal, oc.MinimalViol, oc.Stats = min, viol, stats
				}
			}
		}()
	}
	wg.Wait()
	return sum
}
