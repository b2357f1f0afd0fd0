package chaos

import (
	"fmt"
	"time"

	"press/internal/cnet"
	"press/internal/faults"
	"press/internal/harness"
	"press/internal/metrics"
	"press/internal/snapio"
)

// The runner is Run's control flow turned into an explicit state
// machine so a run can stop at ANY simulated instant, be serialized into
// a snapshot, and resume byte-identically in another world. The model:
// the run is always "executing toward target"; when the clock reaches
// the target, the pending phase transition runs and picks the next
// target. advance(limit) stops BEFORE the transition when the limit is
// reached, which makes every stop point (including the warm-fork point
// at the end of warmup+settle, just before the schedule arms) a
// pre-transition instant: the transition replays identically on resume.
const (
	phWarmup     uint8 = iota // load ramping; transition arms the schedule
	phDrain                   // schedule playing out + drain grace; transition judges recovery
	phPoll                    // 2s reintegration poll after an operator reset
	phFinal                   // measured quiet span; transition stops the generator
	phSettleReqs              // in-flight requests reach their verdicts; transition assembles
	phDone
)

// settleSpan lets in-flight requests reach their 2s-connect/6s-complete
// verdicts after the generator stops so the conservation counters
// balance.
const settleSpan = 10 * time.Second

type runner struct {
	c     *harness.Cluster
	sched Schedule
	rc    RunConfig //availlint:skipfield rc run configuration, supplied again by whoever resumes the run
	res   Result    //availlint:skipfield res assembled when the run ends, from the verdict fields below and the final world

	t0       time.Duration // schedule t=0 on the sim clock
	deadline time.Duration // current operator-reset wait bound
	target   time.Duration // absolute time of the next transition
	phase    uint8

	// The verdict so far: what the run has decided before assemble reads
	// the rest of the Result off the final world. A snapshot carries it.
	start, end   time.Duration
	resets       int
	reintegrated bool
	skipped      []string

	// Per-schedule-entry records, allocated by arm: each is the argument
	// of its entry's inject and repair fires, so a snapshot claims those
	// events by function and record.
	entries []entry
}

// entry is schedule entry i's driver record: what its inject and repair
// fires run over, and the fault its inject left active.
type entry struct {
	r      *runner
	i      int
	active *faults.Active
}

// newRunner builds and starts one world. sched must already be
// canonical and validated (nil is fine for a schedule-less warm world).
func newRunner(eng *harness.Engine, v harness.Version, o harness.Options, sched Schedule, rc RunConfig) *runner {
	r := &runner{sched: sched, rc: rc}
	r.res = Result{Version: v, Schedule: sched}
	r.c = eng.Build(v, o)
	r.c.Gen.Start()
	r.phase = phWarmup
	r.target = r.c.Opts.Warmup + rc.Settle
	return r
}

// advance drives the run forward. limit < 0 means to completion; a
// non-negative limit stops the clock there, before any transition due
// at that instant.
func (r *runner) advance(limit time.Duration) {
	for r.phase != phDone {
		now := r.c.Sim.Now()
		if limit >= 0 && now >= limit {
			return
		}
		if now < r.target {
			stop := r.target
			if limit >= 0 && limit < stop {
				stop = limit
			}
			r.c.Sim.RunUntil(stop)
			if r.c.Sim.Now() < r.target {
				return // stopped mid-phase at the limit
			}
			if limit >= 0 && r.c.Sim.Now() >= limit {
				return // reached the target AND the limit: pre-transition stop
			}
		}
		r.transition()
	}
}

func (r *runner) transition() {
	switch r.phase {
	case phWarmup:
		r.arm()
	case phDrain:
		r.verdict()
	case phPoll:
		r.pollCheck()
	case phFinal:
		r.end = r.c.Sim.Now()
		r.c.Gen.Stop()
		r.phase = phSettleReqs
		r.target = r.c.Sim.Now() + settleSpan
	case phSettleReqs:
		r.assemble()
		r.phase = phDone
	}
}

// arm schedules the whole fault load up front, exactly as the paper's
// driver does; the injector enforces slot conflicts, and an arrival whose
// target an earlier fault already took out is skipped (Injector.Eligible).
func (r *runner) arm() {
	t0 := r.c.Sim.Now()
	r.t0 = t0
	r.start = t0
	r.makeEntries()
	for i, e := range r.sched {
		r.c.Sim.AtArg(t0+e.At, fireInject, &r.entries[i])
		r.c.Sim.AtArg(t0+e.End(), fireRepair, &r.entries[i])
	}
	r.phase = phDrain
	r.target = t0 + r.sched.Horizon() + r.rc.DrainGrace
}

// makeEntries allocates one record per schedule entry.
func (r *runner) makeEntries() {
	r.entries = make([]entry, len(r.sched))
	for i := range r.entries {
		r.entries[i] = entry{r: r, i: i}
	}
}

// fireInject is an entry's inject fire, the kernel callback armed at its
// arrival.
func fireInject(arg any) {
	en := arg.(*entry)
	r, e := en.r, en.r.sched[en.i]
	if !r.c.Injector.Eligible(e.Fault, e.Component) {
		r.skipped = append(r.skipped, fmt.Sprintf("%s: target unavailable", e))
		return
	}
	a, err := r.c.Injector.InjectWith(e.Fault, e.Component, faults.InjectOpts{
		Flap:     faults.Flap{On: e.FlapOn, Off: e.FlapOff},
		Severity: e.Severity,
		Group:    e.Group,
	})
	if err != nil {
		r.skipped = append(r.skipped, fmt.Sprintf("%s: %v", e, err))
		return
	}
	en.active = a
}

// fireRepair is an entry's repair fire, armed at its end.
func fireRepair(arg any) {
	if en := arg.(*entry); en.active != nil {
		_ = en.active.Repair()
		en.active = nil
	}
}

// verdict runs at drain end and after each reset round: self-
// reintegration first, then up to two operator rounds (§3's reset;
// compound faults may legitimately need a second).
func (r *runner) verdict() {
	if r.resets < 2 && !r.c.Reintegrated() {
		r.resets++
		r.c.OperatorReset()
		r.deadline = r.c.Sim.Now() + r.rc.ResetLimit
		r.pollCheck()
		return
	}
	r.reintegrated = r.c.Reintegrated()
	r.phase = phFinal
	r.target = r.c.Sim.Now() + r.rc.FinalObserve
}

// pollCheck decides whether to keep polling for reintegration (2s
// steps, the original inner loop) or hand the round back to verdict.
func (r *runner) pollCheck() {
	if r.c.Sim.Now() < r.deadline && !r.c.Reintegrated() {
		r.phase = phPoll
		r.target = r.c.Sim.Now() + 2*time.Second
		return
	}
	r.verdict()
}

// assemble snapshots every probe the invariant catalog needs, in the
// original Run order.
func (r *runner) assemble() {
	c := r.c
	res := &r.res
	res.Start, res.End, res.Resets, res.Reintegrated, res.Skipped = r.start, r.end, r.resets, r.reintegrated, r.skipped
	res.Log = c.Log
	res.Nodes = len(c.Machines)
	res.Offered = c.Rec.Offered
	res.Succeeded = c.Rec.Succeeded
	res.Failed = c.Rec.Failed
	res.Availability = c.Rec.Availability(res.Start, res.End)
	res.Floor = analyticFloor(r.sched, res.End-res.Start)
	res.Series = c.Rec.Throughput

	for i, m := range c.Machines {
		if m.Up() {
			res.LiveNodes++
		}
		if c.Version.Cooperative() {
			views := 0
			if srv := c.Server(i); srv != nil {
				views = len(srv.View())
			}
			res.ViewSizes = append(res.ViewSizes, views)
		}
		if srv := c.Server(i); srv != nil {
			for j := range c.Machines {
				if i == j {
					continue
				}
				if q := srv.SendQueueLen(cnet.NodeID(j)); q > res.SendQueueMax {
					res.SendQueueMax = q
				}
			}
		}
	}
	res.ActiveFaults = c.Injector.ActiveCount()
	res.FMEActions = c.Log.Query().Kind(metrics.KFMEAction).Between(r.t0, res.End).Count()
	res.FMEMisses = fmeMisses(c, r.sched, r.t0)
}

// SnapExtra moves the runner's driver state at the world stream's extra
// slot (the hook harness.Take and Snap.Restore take). The per-entry
// section exists only once the schedule has armed; an un-armed (warm-fork)
// snapshot carries no schedule state at all, which is what lets a fork
// substitute a different schedule. Loading runs against the restored
// cluster: pending inject/repair fires re-arm at their exact kernel slots
// over fresh entry records, and each entry's Active handle re-links to
// the injector record the injector's walk rebuilt.
func (r *runner) SnapExtra(x *snapio.Ctx) {
	snapio.Int(x, &r.phase)
	snapio.Int(x, &r.target)
	snapio.Int(x, &r.t0)
	snapio.Int(x, &r.deadline)
	snapio.Int(x, &r.start)
	snapio.Int(x, &r.end)
	snapio.Int(x, &r.resets)
	x.Bool(&r.reintegrated)
	snapio.Slice(x, &r.skipped, 1<<16, x.Str)
	armed := r.phase != phWarmup
	if x.Bool(&armed); !armed {
		return // un-armed: this world accepts any schedule
	}
	h := r.sched.Hash()
	if x.U64(&h); h != r.sched.Hash() {
		snapio.Failf("chaos: snapshot armed with schedule %016x; cannot resume it as %016x", h, r.sched.Hash())
	}
	if !x.Saving() {
		r.makeEntries()
	}
	for i, e := range r.sched {
		en := &r.entries[i]
		snapio.Event(x, fireInject, en)
		snapio.Event(x, fireRepair, en)
		active := en.active != nil
		if x.Bool(&active); active && !x.Saving() {
			if en.active = r.c.Injector.ActiveAt(e.Fault, e.Component); en.active == nil {
				snapio.Failf("chaos: entry %d's active fault %v/%d missing after restore", i, e.Fault, e.Component)
			}
		}
	}
}
