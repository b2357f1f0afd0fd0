package harness

import (
	"runtime"
	"sync"

	"press/internal/faults"
)

// This file is the parallel experiment engine: a worker pool that bounds
// how many simulator instances run at once, plus singleflight memoization
// of what figures share, campaigns and saturation probes.
//
// Every episode is a pure function of (version, options, fault,
// component, schedule): each runs on its own sim.Sim with its own derived
// random streams, so executing episodes concurrently cannot perturb their
// results — the same parameters yield a bit-identical template whether the
// episode runs serially, on the pool, or on a fork of a campaign's warm
// capture. Episodes are not memoized: a campaign runs each of its faults
// once, and the figures that print an episode read it out of the
// campaign. Singleflight matters because figures share campaigns and
// probes: when two figures race to the same campaign, one simulates and
// the rest wait for its result instead of duplicating minutes of
// simulated time.

// memo is a singleflight table: the first caller of a key computes and
// closes done; everyone else blocks on done and shares the value and the
// error (an error is memoized like a value — the simulator is
// deterministic, so a retry would fail the same way). The zero value is
// ready to use.
type memo[V any] struct {
	mu sync.Mutex
	m  map[string]*memoEntry[V]
}

type memoEntry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

func (t *memo[V]) do(key string, compute func() (V, error)) (V, error) {
	t.mu.Lock()
	if e, ok := t.m[key]; ok {
		t.mu.Unlock()
		<-e.done
		return e.val, e.err
	}
	e := &memoEntry[V]{done: make(chan struct{})}
	if t.m == nil {
		t.m = map[string]*memoEntry[V]{}
	}
	t.m[key] = e
	t.mu.Unlock()

	e.val, e.err = compute()
	close(e.done)
	return e.val, e.err
}

func (t *memo[V]) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// Engine owns one worker pool and one set of memo tables, and is the only
// thing that does: independent engines share nothing, so two experiments
// built on separate engines run with different concurrency bounds and
// never exchange cached results. Whoever runs an experiment owns the
// engine it runs on: press.New builds one per handle, press.NewFigures
// one per Figures, and every other package-level press call one per call.
// No engine outlives its owner, so nothing is cached across them.
type Engine struct {
	// pool is a counting semaphore bounding concurrent simulator runs at
	// cap, fixed at construction. Orchestration code (campaign fan-out,
	// figure prewarms) never holds a slot; only code that is about to spin
	// a simulator does, so nesting campaigns inside figures cannot
	// deadlock the pool.
	poolMu   sync.Mutex
	poolCond *sync.Cond
	cap      int
	held     int

	campaigns   memo[CampaignResult] // shared Series/Log pointers are immutable once the run completes
	saturations memo[float64]
}

// NewEngine returns an engine bounded to the given number of concurrent
// simulators. workers < 1 selects the default, GOMAXPROCS.
func NewEngine(workers int) *Engine {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{cap: workers}
	e.poolCond = sync.NewCond(&e.poolMu)
	return e
}

func (e *Engine) acquireSlot() {
	e.poolMu.Lock()
	for e.held >= e.cap {
		e.poolCond.Wait()
	}
	e.held++
	e.poolMu.Unlock()
}

func (e *Engine) releaseSlot() {
	e.poolMu.Lock()
	e.held--
	e.poolCond.Broadcast()
	e.poolMu.Unlock()
}

// MemoStats returns how many campaigns and saturation probes are
// currently memoized.
func (e *Engine) MemoStats() (campaigns, saturations int) {
	return e.campaigns.len(), e.saturations.len()
}

// WithSlot runs fn while holding one worker-pool slot: a simulation the
// engine does not run itself (a chaos replay) takes its turn through it.
// fn must not re-enter a pool-holding entry point: with a 1-slot pool
// that nesting would deadlock.
func (e *Engine) WithSlot(fn func()) {
	e.acquireSlot()
	defer e.releaseSlot()
	fn()
}

// RunEpisode measures one episode on a world of its own, warmed in place
// on one of the engine's pool slots. Nothing is memoized: every call
// simulates. A campaign does not come through here: its episodes all begin
// with the same warm-up, so it simulates that once and forks each
// episode's world from the capture (campaign.go).
func (e *Engine) RunEpisode(v Version, o Options, f faults.Type, comp int, sched EpisodeSchedule) (Episode, error) {
	o = o.withDefaults()
	sched = sched.withDefaults()
	e.acquireSlot()
	defer e.releaseSlot()
	c := e.Build(v, o)
	if c.Injector.Applicable(f) { // episodeFrom refuses the others, and needs no warm world to do it
		c.warmUp(sched)
	}
	return episodeFrom(c, f, comp, sched)
}

// campaignJob names one (version, options) campaign for prewarming.
type campaignJob struct {
	v Version
	o Options
}

// prewarmJobs runs several campaigns concurrently (each campaign in turn
// fans its episodes out on the pool) and returns the first error. Figure
// generators call this before their serial assembly passes so that every
// subsequent Campaign call is a memo hit.
func (e *Engine) prewarmJobs(sched EpisodeSchedule, jobs []campaignJob) error {
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		// Orchestration-only: Campaign's episodes take pool slots; the
		// launcher goroutine itself never simulates.
		go func() { // bounded by the engine worker pool
			defer wg.Done()
			_, errs[i] = e.Campaign(j.v, j.o, sched)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// prewarmCampaigns is prewarmJobs for several versions sharing one
// Options.
func (e *Engine) prewarmCampaigns(o Options, sched EpisodeSchedule, versions ...Version) error {
	jobs := make([]campaignJob, len(versions))
	for i, v := range versions {
		jobs[i] = campaignJob{v: v, o: o}
	}
	return e.prewarmJobs(sched, jobs)
}
