package harness

import (
	"fmt"
	"sync"
	"time"

	"press/internal/avail"
	"press/internal/faults"
)

// CampaignResult is one version's complete phase-1 measurement set.
type CampaignResult struct {
	Version Version
	Opts    Options
	Normal  float64 // fault-free throughput
	Offered float64
	Loads   []avail.FaultLoad
	Eps     []Episode
}

// Model evaluates the phase-2 availability model over the campaign. Per
// the paper's footnote 1, W0 is the offered load (the server is assumed
// unsaturated under normal operation), so availability loss comes only
// from the fault stages; r.Normal is kept as the measured reference.
func (r CampaignResult) Model(env avail.Env) (avail.Result, error) {
	return avail.Availability(r.Offered, r.Offered, r.Loads, env)
}

// Campaign runs one injection episode per applicable Table 1 fault class
// and assembles the fault loads for the phase-2 model. The campaign warms
// one world, captures it, and runs every episode on a fork of that
// capture, concurrently on the engine's worker pool (see warm). The
// campaign is memoized with singleflight semantics: the simulator is
// deterministic, so a campaign is a pure function of its parameters, and
// concurrent requests for the same campaign share one assembly.
func (e *Engine) Campaign(v Version, o Options, sched EpisodeSchedule) (CampaignResult, error) {
	o = o.withDefaults()
	sched = sched.withDefaults()
	key := fmt.Sprintf("%s|%+v|%+v", v, o, sched)
	return e.campaigns.do(key, func() (CampaignResult, error) { return e.runCampaign(v, o, sched) })
}

// runCampaign takes the campaign's one warm capture, fans its episodes out
// on the worker pool, each on a fork of the capture, and assembles the
// result in Table 1 order (so the output is independent of completion
// order).
func (e *Engine) runCampaign(v Version, o Options, sched EpisodeSchedule) (CampaignResult, error) {
	res := CampaignResult{Version: v, Opts: o}
	specs := faults.Table1(serverCount(v, o), 2, versionTraits(v).fe)
	// Resolve the 90%-of-saturation load before warm builds its world, so
	// the probe's world is garbage before the campaign's exists.
	if o.Rate <= 0 {
		e.Saturation(v, o)
	}
	w, err := e.warm(v, o, sched)
	if err != nil {
		return res, err
	}
	eps := make([]Episode, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		// Orchestration-only goroutine: each immediately blocks on the
		// engine's worker-pool slot, so simulator parallelism stays
		// bounded by the engine's cap.
		go func() { // bounded by the engine worker pool
			defer wg.Done()
			e.acquireSlot()
			defer e.releaseSlot()
			c, err := w.Restore(nil)
			if err != nil {
				errs[i] = err
				return
			}
			eps[i], errs[i] = episodeFrom(c, spec.Type, DefaultComponent(spec.Type), sched)
			c.Hold()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	return assemble(v, o, specs, eps), nil
}

// assemble puts a campaign's episodes, one per spec and in that order,
// together with the fault loads the phase-2 model reads.
func assemble(v Version, o Options, specs []faults.Spec, eps []Episode) CampaignResult {
	res := CampaignResult{Version: v, Opts: o, Eps: eps}
	for i, ep := range eps {
		res.Loads = append(res.Loads, avail.FaultLoad{Spec: specs[i], Tpl: ep.Tpl})
		if ep.Normal > res.Normal {
			res.Normal = ep.Normal
		}
		res.Offered = ep.Offered
	}
	return res
}

// warm builds v's world, brings it to an episode's injection point on a
// pool slot and captures it. The 7 or 8 episodes of a Table-1 campaign all
// begin with the same Warmup + Settle from the same seed, options and
// offered load — a third of a campaign's events — so the campaign
// simulates that once and every episode continues on a fork of its own
// (own kernel, log and recorder). A fork continues byte-identically to the
// world that was captured (DESIGN §13), so the campaign's numbers do not
// change. The capture is held by one runCampaign call and never memoized:
// a wide world's blob is large, and nothing but that campaign's episodes
// could use it.
func (e *Engine) warm(v Version, o Options, sched EpisodeSchedule) (*Snap, error) {
	e.acquireSlot()
	defer e.releaseSlot()
	c := e.Build(v, o)
	c.warmUp(sched)
	return Take(c, nil)
}

// FastSchedule shortens an episode for tests: the stage structure is
// unchanged, only observation windows shrink.
func FastSchedule() EpisodeSchedule {
	return EpisodeSchedule{
		Settle:        40 * time.Second,
		FaultActive:   100 * time.Second,
		ObserveRepair: 60 * time.Second,
		ResetLimit:    60 * time.Second,
		ObserveG:      45 * time.Second,
	}
}

// FastOptions shrinks the world for tests: a quarter-size document set
// with quarter-size caches (so the cache-to-working-set ratios — and with
// them the INDEP-disk-bound / COOP-CPU-bound regime — are preserved while
// caches warm four times faster) and a shorter ramp.
func FastOptions(seed int64) Options {
	return Options{
		Seed:       seed,
		Warmup:     2 * time.Minute,
		Docs:       6500,
		CacheBytes: 32 << 20,
	}
}
