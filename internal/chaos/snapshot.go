package chaos

import (
	"time"

	"press/internal/harness"
	"press/internal/snapio"
)

// Warm-fork campaigns: every seed of a campaign shares one world warmed
// to the pre-arm point (warmup + settle). That world is captured once as
// a snapshot and each seed forks an independent copy and arms its own
// schedule — the expensive warm ramp is paid once instead of per seed.
// A fork that runs a schedule produces the byte-identical Result the
// cold Run path produces for the same inputs, which is what the
// equivalence tests pin.

// WarmSnapshot builds, warms and captures one world for (v, o). The
// capture point is warmup + settle, immediately before a schedule would
// arm, so the snapshot is schedule-free and any schedule can be forked
// onto it. Each call simulates: the engine only resolves an unset
// offered load.
func WarmSnapshot(eng *harness.Engine, v harness.Version, o harness.Options, rc RunConfig) (*harness.Snap, error) {
	r := newRunner(eng, v, o, nil, rc.withDefaults())
	r.advance(r.target)
	return harness.Take(r.c, r.SnapExtra)
}

// RunWithSnapshotAt runs the schedule cold, pausing once when the sim
// clock reaches the absolute time at to capture a snapshot, then
// continues to completion. The pause is observationally free: the
// returned Result is byte-identical to an uninterrupted Run.
func RunWithSnapshotAt(eng *harness.Engine, v harness.Version, o harness.Options, sched Schedule, rc RunConfig, at time.Duration) (Result, *harness.Snap, error) {
	rc = rc.withDefaults()
	sched = sched.Canonical()
	if err := sched.Validate(); err != nil {
		return Result{Version: v, Schedule: sched}, nil, err
	}
	r := newRunner(eng, v, o, sched, rc)
	r.advance(at)
	snap, err := harness.Take(r.c, r.SnapExtra)
	if err != nil {
		return Result{Version: v, Schedule: sched}, nil, err
	}
	r.advance(-1)
	return r.res, snap, nil
}

// ResumeUncached restores a run from the snapshot and plays it to
// completion. A pre-arm snapshot forks a fresh run of the schedule; a
// mid-run one resumes the run it was taken in. Nothing in this package
// caches a run; the name stays because cmd/pressbench calls it.
func ResumeUncached(snap *harness.Snap, sched Schedule, rc RunConfig) (Result, error) {
	rc = rc.withDefaults()
	sched = sched.Canonical()
	if err := sched.Validate(); err != nil {
		return Result{Version: snap.Version, Schedule: sched}, err
	}
	r, err := restoreRunner(snap, sched, rc)
	if err != nil {
		return Result{Version: snap.Version, Schedule: sched}, err
	}
	r.advance(-1)
	return r.res, nil
}

// restoreRunner rehydrates a runner from a snapshot with the given
// schedule. If the snapshot was taken pre-arm the schedule arms on the
// restored world; if it was taken mid-run the schedule must be the one
// the snapshot was armed with.
func restoreRunner(snap *harness.Snap, sched Schedule, rc RunConfig) (*runner, error) {
	r := &runner{sched: sched, rc: rc}
	r.res = Result{Version: snap.Version, Schedule: sched}
	_, err := snap.Restore(func(c *harness.Cluster, x *snapio.Ctx) {
		r.c = c
		r.SnapExtra(x)
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// RunCampaignFromSnapshot plays a campaign against an already-captured
// warm snapshot (one taken by WarmSnapshot, possibly serialized to disk
// and loaded back in a later process). The snapshot's envelope supplies
// the version, the world options and the resolved offered load. Unlike
// RunCampaign — where each seed also reseeds the world itself — every
// fork shares the base world, so the seeds vary only the fault load, and
// each outcome records the base world's options: replaying its schedule
// cold against them (Run) reproduces the forked result byte-identically.
// The engine bounds how many forks run at once.
func RunCampaignFromSnapshot(eng *harness.Engine, snap *harness.Snap, cfg CampaignConfig) (CampaignSummary, error) {
	o := snap.Opts
	o.Rate = snap.Rate // pin the resolved load so a cold replay matches
	replay := func(s Schedule) (Result, error) { return ResumeUncached(snap, s, cfg.Run) }
	return runSeeds(eng, snap.Version, cfg, func(int64) (harness.Options, func(Schedule) (Result, error)) {
		return o, replay
	}), nil
}
