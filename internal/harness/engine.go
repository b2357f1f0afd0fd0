package harness

import (
	"fmt"
	"runtime"
	"sync"

	"press/internal/faults"
)

// This file is the parallel experiment engine: a worker pool that bounds
// how many simulator instances run at once, plus episode-granularity
// memoization with singleflight semantics.
//
// Every episode is a pure function of (version, options, fault,
// component, schedule): each runs on its own sim.Sim with its own derived
// random streams, so executing episodes concurrently cannot perturb their
// results — the same key yields a bit-identical template whether the
// episode runs serially, on the pool, or is replayed from the memo.
// Singleflight matters because figures, tables, benches and tests share
// episodes: when two campaigns race to the same (version, fault) episode,
// one simulates and the rest wait for its result instead of duplicating
// minutes of simulated time.

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

// reset drops every entry. In-flight computations finish against the old
// entries; only callers arriving afterwards recompute.
func (t *memo[V]) reset() {
	t.mu.Lock()
	t.m = nil
	t.mu.Unlock()
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

	episodes    memo[Episode] // shared Series/Log pointers are immutable once the run completes
	campaigns   memo[CampaignResult]
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

// MemoStats returns how many episodes, campaigns and saturation probes
// are currently memoized.
func (e *Engine) MemoStats() (episodes, campaigns, saturations int) {
	return e.episodes.len(), e.campaigns.len(), e.saturations.len()
}

// ResetMemos drops every cached result: episodes, campaigns and
// saturation probes. Benchmarks use this to measure real simulation work
// instead of memo hits.
func (e *Engine) ResetMemos() {
	e.episodes.reset()
	e.campaigns.reset()
	e.saturations.reset()
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

// RunEpisode returns the episode for the parameters, computing it on the
// engine's worker pool exactly once per engine. Options and
// EpisodeSchedule are flat value structs, so %+v is a faithful key.
func (e *Engine) RunEpisode(v Version, o Options, f faults.Type, comp int, sched EpisodeSchedule) (Episode, error) {
	return e.episode(v, o, f, comp, sched, nil)
}

// episode is RunEpisode with the world's origin open: warm, when non-nil,
// is a campaign's shared warm-up, and the episode runs on a fork of it
// instead of warming a world of its own. Both origins give the same
// bytes, so they share one memo key. warm is asked before the episode
// takes its pool slot, because the first caller simulates the warm-up on
// a slot of its own and a 1-slot pool has no second one.
func (e *Engine) episode(v Version, o Options, f faults.Type, comp int, sched EpisodeSchedule, warm func() (*Snap, error)) (Episode, error) {
	o = o.withDefaults()
	sched = sched.withDefaults()
	key := fmt.Sprintf("%s|%+v|%v|%d|%+v", v, o, f, comp, sched)
	return e.episodes.do(key, func() (Episode, error) {
		var w *Snap
		if warm != nil {
			var err error
			if w, err = warm(); err != nil {
				return Episode{Version: v, Fault: f, Component: comp}, err
			}
		}
		e.acquireSlot()
		defer e.releaseSlot()
		if w == nil {
			return e.runEpisodeUncached(v, o, f, comp, sched)
		}
		c, err := w.Restore(nil)
		if err != nil {
			return Episode{Version: v, Fault: f, Component: comp}, err
		}
		return episodeFrom(c, f, comp, sched)
	})
}

// episodesUncached reruns the given fault specs' episodes without
// consulting or filling the episode memo, on up to `workers` concurrent
// simulators (independent of the engine's pool; the engine only resolves
// the offered load). It exists for the determinism regression test and
// the serial-vs-pooled benchmark; real callers go through
// RunEpisode/Campaign.
func (e *Engine) episodesUncached(v Version, o Options, specs []faults.Spec, sched EpisodeSchedule, workers int) ([]Episode, error) {
	if workers < 1 {
		workers = 1
	}
	eps := make([]Episode, len(specs))
	errs := make([]error, len(specs))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func() { // bounded by the local sem; this IS the benchmark pool
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			eps[i], errs[i] = e.runEpisodeUncached(v, o, spec.Type, DefaultComponent(spec.Type), sched)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return eps, err
		}
	}
	return eps, nil
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
