package chaos

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"press/internal/faults"
	"press/internal/harness"
)

// GenConfig shapes the schedule generator. Zero fields take defaults.
type GenConfig struct {
	// Horizon is the injection window: every entry starts inside it.
	Horizon time.Duration // default 4m
	// MaxFaults keeps the earliest entries when a draw produces more.
	MaxFaults int // default 10
	// MinActive/MaxActive bound each fault's active span (Table 1 MTTRs
	// are minutes-to-hours; chaos compresses them so repair and
	// reconvergence both happen on screen).
	MinActive time.Duration // default 25s
	MaxActive time.Duration // default 75s

	// Gray layers three phases on top of the Table 1 draw: the
	// partial-degradation classes (node-slow, link-lossy, disk-degraded)
	// at the GrayTable rates under the same acceleration, with their
	// class-default severity; correlated rack events (grayCorrelated per
	// horizon); and recovery chases (grayChase per steady entry). Default
	// off; enabling it does not change the Table 1 entries a seed
	// produces.
	Gray bool
}

// The gray phases' fixed shape: one expected correlated event per
// horizon — a switch-takes-rack event (the links of one rack of
// harness.DefaultRackSize nodes sever together) or a power event (its
// machines crash together), injected atomically as one group — and a
// one-in-four chance that a steady fault gets a second fault armed inside
// its repair window, the MSCS paper's failure-during-regroup scenario.
// Enough to land multi-component and fault-during-recovery scenarios in
// most seeds without swamping the Table 1 draw the seeds were calibrated
// on.
const (
	grayCorrelated = 1.0
	grayChase      = 0.25
)

const (
	// accel divides every Table 1 MTTF so compound faults actually occur
	// inside the horizon (same acceleration idea as the stochastic
	// validator, cranked higher to force overlap).
	accel = 6000
	// minFaults: generation retries (doubling the acceleration, fresh
	// stream) until the schedule has at least this many entries.
	minFaults = 3
	// flapFraction of flap-capable draws (link, disk) become
	// intermittent variants.
	flapFraction = 0.3
)

func (g GenConfig) withDefaults() GenConfig {
	if g.Horizon <= 0 {
		g.Horizon = 4 * time.Minute
	}
	if g.MaxFaults <= 0 {
		g.MaxFaults = 10
	}
	if g.MinActive <= 0 {
		g.MinActive = 25 * time.Second
	}
	if g.MaxActive < g.MinActive {
		g.MaxActive = 75 * time.Second
		if g.MaxActive < g.MinActive {
			g.MaxActive = g.MinActive
		}
	}
	return g
}

// genRandL derives one of the generator's random streams from (label,
// seed, try) alone — never from global state — so Generate is a pure
// function. Each generation phase (Table 1, gray, correlated, chase)
// draws from its own labeled stream, so enabling one phase never
// perturbs another's entries.
func genRandL(label string, seed int64, try int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d", label, seed, try)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// genRand is the Table 1 phase's stream; its label predates the gray
// engine and must not change (seeded schedules are cached and shipped
// in repro files).
func genRand(seed int64, try int) *rand.Rand {
	return genRandL("chaos/generate", seed, try)
}

// drawSpecs runs the per-slot Poisson draw for one spec table: each
// (class, component) slot produces arrivals at its accelerated rate,
// each active for a uniform span, with flap-capable classes sometimes
// drawn as intermittent variants.
func drawSpecs(rng *rand.Rand, specs []faults.Spec, cfg GenConfig, accel float64) Schedule {
	var sched Schedule
	for _, sp := range specs {
		mean := float64(sp.MTTF) / accel
		for comp := 0; comp < sp.Components; comp++ {
			// Poisson arrivals on this slot; same-slot entries may not
			// overlap, so each arrival starts after the previous repair.
			at := time.Duration(rng.ExpFloat64() * mean)
			for at < cfg.Horizon {
				span := cfg.MinActive +
					time.Duration(rng.Int63n(int64(cfg.MaxActive-cfg.MinActive)+1))
				e := Entry{
					At:        at.Round(time.Second),
					Fault:     sp.Type,
					Component: comp,
					Duration:  span.Round(time.Second),
				}
				if faults.FlapCapable(sp.Type) && rng.Float64() < flapFraction {
					e.FlapOn = time.Duration(3+rng.Intn(6)) * time.Second
					e.FlapOff = time.Duration(2+rng.Intn(4)) * time.Second
				}
				sched = append(sched, e)
				at = e.End() + time.Second + time.Duration(rng.ExpFloat64()*mean)
			}
		}
	}
	return sched
}

// slotFree reports whether [at, end) on (t, comp) avoids every existing
// entry's active window — the same-slot overlap rule Validate enforces.
func slotFree(sched Schedule, t faults.Type, comp int, at, end time.Duration) bool {
	for _, e := range sched {
		if e.Fault == t && e.Component == comp && at < e.End() && e.At < end {
			return false
		}
	}
	return true
}

// Generate draws a seeded fault schedule for the version's cluster
// shape: each Table 1 (class, component) slot produces Poisson arrivals
// at its accelerated rate, each arrival active for a uniform span, with
// flap-capable classes sometimes drawn as intermittent variants. Gray
// layers further phases on top, each from its own derived stream, so the
// Table 1 portion of a seed's schedule is identical whether or not they
// are enabled. The same (seed, v, o, cfg) always yields the same
// schedule.
func Generate(seed int64, v harness.Version, o harness.Options, cfg GenConfig) Schedule {
	cfg = cfg.withDefaults()
	topo := harness.NewTopology(v, o)
	n := topo.Nodes
	specs := faults.Table1(n, 2, topo.Frontend)

	a := float64(accel)
	var sched Schedule
	for try := 0; try < 8; try++ {
		rng := genRand(seed, try)
		sched = drawSpecs(rng, specs, cfg, a)
		if len(sched) >= minFaults {
			break
		}
		a *= 2 // sparse draw: crank the fault load and redraw
	}

	sched = sched.Canonical()
	if len(sched) > cfg.MaxFaults {
		sched = sched[:cfg.MaxFaults]
	}

	if cfg.Gray {
		gray := drawSpecs(genRandL("chaos/gray", seed, 0), faults.GrayTable(n, 2), cfg, accel)
		gray = gray.Canonical()
		if len(gray) > cfg.MaxFaults {
			gray = gray[:cfg.MaxFaults]
		}
		sched = append(sched, gray...)
		if n > 0 {
			sched = append(sched, drawCorrelated(genRandL("chaos/correlated", seed, 0), sched, cfg, n)...)
			sched = append(sched, drawChase(genRandL("chaos/chase", seed, 0), sched, cfg, n)...)
		}
	}

	return sched.Canonical()
}

// drawCorrelated draws the correlated multi-fault events: Poisson
// arrivals at rate grayCorrelated per horizon, each either a
// switch-takes-rack event (the rack's intra-cluster links sever
// together) or a power event (the rack's machines crash together). A
// group's members share one At and one duration — one event, one repair
// crew — and carry a common group tag so the runner injects them
// atomically and the shrinker deletes them as a unit. An event whose
// slots collide with existing entries is redrawn a few times, then
// dropped: a sparse miss, not an error.
func drawCorrelated(rng *rand.Rand, sched Schedule, cfg GenConfig, n int) Schedule {
	var out Schedule
	group := 0
	mean := float64(cfg.Horizon) / grayCorrelated
	for at := time.Duration(rng.ExpFloat64() * mean); at < cfg.Horizon; at += time.Duration(rng.ExpFloat64() * mean) {
		kind := faults.LinkDown // switch takes the rack's links
		if rng.Intn(2) == 1 {
			kind = faults.NodeCrash // power event takes the rack's machines
		}
		size := min(harness.DefaultRackSize, n)
		placed := false
		for attempt := 0; attempt < 8 && !placed; attempt++ {
			start := at.Round(time.Second)
			if attempt > 0 {
				start = time.Duration(rng.Int63n(int64(cfg.Horizon))).Round(time.Second)
			}
			span := (cfg.MinActive +
				time.Duration(rng.Int63n(int64(cfg.MaxActive-cfg.MinActive)+1))).Round(time.Second)
			rack := 0
			if n > size {
				rack = rng.Intn(n - size + 1)
			}
			ok := true
			for m := 0; m < size; m++ {
				if !slotFree(sched, kind, rack+m, start, start+span) ||
					!slotFree(out, kind, rack+m, start, start+span) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			group++
			for m := 0; m < size; m++ {
				out = append(out, Entry{
					At: start, Fault: kind, Component: rack + m,
					Duration: span, Group: group,
				})
			}
			placed = true
		}
	}
	return out
}

// chaseWindow is how long after an entry's repair the cluster counts as
// "in recovery" for fault-during-recovery scheduling — detection plus
// reintegration time at chaos scale.
const chaseWindow = 15 * time.Second

// drawChase arms fault-during-recovery entries: for each steady,
// independent base entry, with probability grayChase, a second fault
// (node or app crash on another node) lands inside the repair window
// that follows the entry's own repair — the regroup phase the MSCS paper
// identifies as the most fragile. Collisions are dropped, not retried:
// the chase targets a specific recovery, there is nowhere else to put it.
func drawChase(rng *rand.Rand, sched Schedule, cfg GenConfig, n int) Schedule {
	var out Schedule
	for _, e := range sched.Canonical() {
		if e.Group != 0 || e.Flapping() || rng.Float64() >= grayChase {
			continue
		}
		kind := faults.AppCrash
		if rng.Intn(2) == 1 {
			kind = faults.NodeCrash
		}
		comp := rng.Intn(n)
		at := e.End() + time.Duration(rng.Int63n(int64(chaseWindow))).Round(time.Second)
		span := (cfg.MinActive +
			time.Duration(rng.Int63n(int64(cfg.MaxActive-cfg.MinActive)+1))).Round(time.Second)
		if !slotFree(sched, kind, comp, at, at+span) || !slotFree(out, kind, comp, at, at+span) {
			continue
		}
		out = append(out, Entry{At: at, Fault: kind, Component: comp, Duration: span})
	}
	return out
}
