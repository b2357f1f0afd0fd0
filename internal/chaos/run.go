package chaos

import (
	"bytes"
	"fmt"
	"time"

	"press/internal/faults"
	"press/internal/harness"
	"press/internal/metrics"
)

// RunConfig shapes one chaos run around its schedule. Zero fields take
// defaults.
type RunConfig struct {
	// Settle: post-warmup quiet span before the schedule's t=0.
	Settle time.Duration // default 30s
	// DrainGrace: quiet span after the last repair before the runner
	// starts judging recovery.
	DrainGrace time.Duration // default 90s
	// ResetLimit bounds the wait for reintegration after each operator
	// reset; the runner allows up to two reset rounds (a compound fault
	// can legitimately need more than one, e.g. a node booting after the
	// first reset still has a wedged process).
	ResetLimit time.Duration // default 120s
	// FinalObserve: measured quiet span after the recovery verdict.
	FinalObserve time.Duration // default 30s
}

const (
	// recoveryGrace extends each fault's window in the analytic
	// availability floor: a fault's damage may outlive its repair by up
	// to detection + rejoin + warmup.
	recoveryGrace = 4 * time.Minute
	// floorMargin is slack subtracted from the analytic floor (the floor
	// assumes total blackout during fault windows plus this margin for
	// compound-fault interaction).
	floorMargin = 0.03
)

func (r RunConfig) withDefaults() RunConfig {
	if r.Settle <= 0 {
		r.Settle = 30 * time.Second
	}
	if r.DrainGrace <= 0 {
		r.DrainGrace = 90 * time.Second
	}
	if r.ResetLimit <= 0 {
		r.ResetLimit = 120 * time.Second
	}
	if r.FinalObserve <= 0 {
		r.FinalObserve = 30 * time.Second
	}
	return r
}

// Violation is one failed invariant.
type Violation struct {
	Invariant string
	Detail    string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Result is everything one chaos run measured; the invariant catalog
// judges it after the fact.
type Result struct {
	Version  harness.Version
	Schedule Schedule
	Start    time.Duration // schedule t=0 on the sim clock
	End      time.Duration // measurement window end (load generator stop)

	Offered   uint64
	Succeeded uint64
	Failed    uint64

	Availability float64 // measured over [Start, End]
	Floor        float64 // analytic schedule-derived lower bound

	Reintegrated bool
	Resets       int
	Skipped      []string // schedule entries not injected, with reasons

	Nodes        int   // server machines built
	LiveNodes    int   // machines up at the end
	ViewSizes    []int // per-node cooperation view sizes at the end
	SendQueueMax int   // largest peer send queue at the end
	ActiveFaults int   // injector slots still active at the end (want 0)

	FMEMisses  []string // hangs FME should have converted but did not
	FMEActions int

	Log    *metrics.Log
	Series *metrics.Series // successful completions per second
}

// Serialize renders every number the run produced — counters, verdicts,
// throughput series, the full event log — into one deterministic byte
// stream. The replay acceptance test runs the same schedule twice and
// requires bytes.Equal.
func (r Result) Serialize() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "chaos %s hash=%016x start=%s end=%s\n", r.Version, r.Schedule.Hash(), r.Start, r.End)
	b.WriteString(r.Schedule.String())
	fmt.Fprintf(&b, "offered=%d succeeded=%d failed=%d\n", r.Offered, r.Succeeded, r.Failed)
	fmt.Fprintf(&b, "availability=%.9f floor=%.9f\n", r.Availability, r.Floor)
	fmt.Fprintf(&b, "reintegrated=%v resets=%d skipped=%v\n", r.Reintegrated, r.Resets, r.Skipped)
	fmt.Fprintf(&b, "nodes=%d live=%d views=%v sendq=%d activefaults=%d\n",
		r.Nodes, r.LiveNodes, r.ViewSizes, r.SendQueueMax, r.ActiveFaults)
	fmt.Fprintf(&b, "fme actions=%d misses=%v\n", r.FMEActions, r.FMEMisses)
	fmt.Fprintf(&b, "series %v\n", r.Series.Buckets())
	for c := r.Log.Cursor(); ; {
		e, ok := c.Next()
		if !ok {
			break
		}
		fmt.Fprintf(&b, "event %s\n", e)
	}
	return b.Bytes()
}

// Run executes one chaos run: build the version, warm it up, play the
// schedule against the injector, wait for the dust to settle (operator
// resets allowed, as in the paper's stage E), and snapshot every probe
// the invariants need. It builds a private sim.Sim, so concurrent runs
// cannot interact; the same inputs always produce a bit-identical
// Result. The engine only resolves an unset offered load; Run caches
// nothing and takes no worker-pool slot (a campaign takes one for it).
func Run(eng *harness.Engine, v harness.Version, o harness.Options, sched Schedule, rc RunConfig) (Result, error) {
	rc = rc.withDefaults()
	sched = sched.Canonical()
	if err := sched.Validate(); err != nil {
		return Result{Version: v, Schedule: sched}, err
	}
	r := newRunner(eng, v, o, sched, rc)
	r.advance(-1)
	return r.res, nil
}

// fmeMisses checks the FME bound: on FME-bearing versions, a steady
// application hang that lasts at least the enforcement bound — and does
// not overlap any other scheduled fault that could mask or pre-empt the
// probe — must draw an FME action on that node within the bound. The
// bound is two missed probe strikes plus the restart grace (fme's
// two-strike constant at the heartbeat cadence) with one period of slack.
func fmeMisses(c *harness.Cluster, sched Schedule, t0 time.Duration) []string {
	if !c.Version.HasFME() {
		return nil
	}
	bound := 4*c.Opts.HeartbeatPeriod + 5*time.Second
	var misses []string
	for i, e := range sched {
		if e.Fault != faults.AppHang || e.Flapping() || e.Duration < bound {
			continue
		}
		solo := true
		for j, f := range sched {
			if i != j && e.At < f.End() && f.At < e.End() {
				solo = false
				break
			}
		}
		if !solo {
			continue
		}
		winFrom, winTo := t0+e.At, t0+e.At+bound
		_, ok := c.Log.Query().Kind(metrics.KFMEAction).Node(e.Component).After(winFrom).
			FirstWhere(func(ev metrics.Event) bool { return ev.At <= winTo })
		if !ok {
			misses = append(misses, fmt.Sprintf("%s: no fme.action on node %d within %s", e, e.Component, bound))
		}
	}
	return misses
}

// analyticFloor derives the single-fault-model availability lower bound
// for this schedule: assume total request blackout for every fault's
// active window extended by the recovery grace (the worst any single
// Table 1 fault does in the phase-1 campaigns is lose the whole service
// until reintegration), overlap-merged so compound faults are not
// double-counted, minus floorMargin.
func analyticFloor(sched Schedule, window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	type span struct{ from, to time.Duration }
	var spans []span
	for _, e := range sched {
		from, to := e.At, e.End()+recoveryGrace
		if from < 0 {
			from = 0
		}
		if to > window {
			to = window
		}
		if to > from {
			spans = append(spans, span{from, to})
		}
	}
	// Entries arrive canonically sorted by At, so the union is one pass.
	var down time.Duration
	started := false
	var cur span
	for _, s := range spans {
		if !started || s.from > cur.to {
			if started {
				down += cur.to - cur.from
			}
			cur, started = s, true
			continue
		}
		if s.to > cur.to {
			cur.to = s.to
		}
	}
	if started {
		down += cur.to - cur.from
	}
	floor := 1 - down.Seconds()/window.Seconds() - floorMargin
	if floor < 0 {
		floor = 0
	}
	return floor
}
