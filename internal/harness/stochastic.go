package harness

import (
	"fmt"
	"math"
	"time"

	"press/internal/avail"
	"press/internal/faults"
)

// StochasticConfig drives a whole-fault-load validation run: instead of
// the methodology's one-fault-at-a-time campaigns, every Table 1 fault
// class arrives as an independent Poisson process and repairs after its
// MTTR, while the operator resets whatever cannot reintegrate. Measured
// availability over a long horizon is then compared with the phase-2
// analytic prediction for the same (accelerated) fault load.
//
// This validates the model's core assumptions — additivity and
// non-overlap of faults (§2's "Limitations") — which the paper asserts
// but cannot test on a real testbed: real MTTFs are weeks to years.
// Acceleration divides every MTTF while keeping MTTRs, detection times
// and protocol behaviour untouched, so the expected fraction of time
// under faults rises to a measurable level and overlaps actually occur.
type StochasticConfig struct {
	// Horizon is the simulated measurement span after warm-up.
	Horizon time.Duration
	// Accel divides every MTTF (e.g. 2000: a 2-week node-crash MTTF
	// becomes ~10 minutes).
	Accel float64
}

// operatorCheck is how often the operator looks at the system; a reset
// happens when the system has been whole-fault-free but unreintegrated
// for the version Options' OperatorResponse.
const operatorCheck = 30 * time.Second

func (c StochasticConfig) withDefaults() StochasticConfig {
	if c.Horizon <= 0 {
		c.Horizon = 3 * time.Hour
	}
	if c.Accel <= 0 {
		c.Accel = 2000
	}
	return c
}

// StochasticResult is the validation outcome.
type StochasticResult struct {
	Version   Version
	Horizon   time.Duration
	Accel     float64
	Faults    int     // faults injected
	Skipped   int     // arrivals on already-faulty components
	Resets    int     // operator resets
	Overlaps  int     // arrivals while another fault (any class) was active
	Measured  float64 // measured availability over the horizon
	Predicted float64 // phase-2 model prediction at the same accelerated load
}

func (r StochasticResult) String() string {
	return fmt.Sprintf(
		"stochastic %s: horizon=%s accel=%.0f faults=%d (overlapping %d, skipped %d) resets=%d\n"+
			"  measured availability  %.5f\n"+
			"  model prediction       %.5f\n"+
			"  model error            %+.4f points",
		r.Version, r.Horizon, r.Accel, r.Faults, r.Overlaps, r.Skipped, r.Resets,
		r.Measured, r.Predicted, 100*(r.Predicted-r.Measured))
}

// StochasticRun executes the validation for one version. The phase-1
// campaign for the same version supplies the templates for the model
// prediction (memoized on the engine, so repeated validations are cheap).
func StochasticRun(e *Engine, v Version, o Options, sched EpisodeSchedule, cfg StochasticConfig) (StochasticResult, error) {
	o = o.withDefaults()
	cfg = cfg.withDefaults()
	res := StochasticResult{Version: v, Horizon: cfg.Horizon, Accel: cfg.Accel}

	// The model's prediction for the accelerated load.
	camp, err := e.Campaign(v, o, sched)
	if err != nil {
		return res, err
	}
	accLoads := make([]avail.FaultLoad, len(camp.Loads))
	copy(accLoads, camp.Loads)
	for i := range accLoads {
		accLoads[i].Spec.MTTF = time.Duration(float64(accLoads[i].Spec.MTTF) / cfg.Accel)
	}
	pred, err := avail.Availability(camp.Offered, camp.Offered, accLoads,
		avail.Env{OperatorResponse: o.OperatorResponse})
	if err != nil {
		return res, err
	}
	res.Predicted = pred.AA

	// The stochastic run itself.
	c := e.Build(v, o)
	rng := c.Sim.NewRand("stochastic")
	specs := c.FaultSpecs()

	type slot struct {
		spec      faults.Spec
		component int
	}
	var slots []slot
	for _, sp := range specs {
		for comp := 0; comp < sp.Components; comp++ {
			slots = append(slots, slot{spec: sp, component: comp})
		}
	}

	activeFaults := 0
	lastAllClear := time.Duration(0)
	busy := make(map[string]bool) // per-slot fault-in-progress

	var schedule func(s slot)
	schedule = func(s slot) {
		mean := float64(s.spec.MTTF) / cfg.Accel
		gap := time.Duration(rng.ExpFloat64() * mean)
		c.Sim.After(gap, func() {
			defer schedule(s)
			key := fmt.Sprintf("%v/%d", s.spec.Type, s.component)
			if busy[key] || !TargetHealthy(c, s.spec.Type, s.component) {
				res.Skipped++
				return
			}
			a, err := c.Injector.Inject(s.spec.Type, s.component)
			if err != nil {
				res.Skipped++
				return
			}
			if activeFaults > 0 {
				res.Overlaps++
			}
			busy[key] = true
			activeFaults++
			res.Faults++
			c.Sim.After(s.spec.MTTR, func() {
				_ = a.Repair()
				busy[key] = false
				activeFaults--
				if activeFaults == 0 {
					lastAllClear = c.Sim.Now()
				}
			})
		})
	}
	for _, s := range slots {
		schedule(s)
	}

	// The operator: resets splinters that outlive the response time.
	var operate func()
	operate = func() {
		if activeFaults == 0 && !c.Reintegrated() &&
			c.Sim.Now()-lastAllClear >= o.OperatorResponse {
			res.Resets++
			c.OperatorReset()
			lastAllClear = c.Sim.Now()
		}
		c.Sim.After(operatorCheck, operate)
	}
	c.Sim.After(operatorCheck, operate)

	c.Gen.Start()
	start := o.Warmup + 30*time.Second
	c.Sim.RunFor(start + cfg.Horizon)
	res.Measured = c.Rec.Availability(start, c.Sim.Now())
	if math.IsNaN(res.Measured) {
		return res, fmt.Errorf("stochastic: no offered load measured")
	}
	return res, nil
}

// TargetHealthy reports whether injecting (t, comp) makes sense right now
// (the component exists and is not already under some fault's effect).
// The stochastic driver and the chaos scheduler use it to skip arrivals
// whose target another still-active fault already took down.
func TargetHealthy(c *Cluster, t faults.Type, comp int) bool {
	switch t {
	case faults.SwitchDown:
		return c.Net.SwitchUp()
	case faults.FrontendFailure:
		return c.FEMach != nil && c.FEMach.Up()
	case faults.SCSITimeout:
		m := c.Machines[comp/2]
		return m.Up() && !m.Disks().Disks()[comp%2].Faulty()
	case faults.LinkDown:
		return c.Machines[comp].Up() && c.Machines[comp].Iface().LinkUp()
	case faults.NodeCrash, faults.NodeFreeze:
		return c.Machines[comp].Up()
	case faults.AppCrash, faults.AppHang:
		m := c.Machines[comp]
		p := m.Proc("press")
		return m.Up() && p != nil && p.Alive() && !p.Hung()
	case faults.NodeSlow:
		m := c.Machines[comp]
		return m.Up() && m.SlowFactor() <= 1
	case faults.LinkLossy:
		m := c.Machines[comp]
		return m.Up() && m.Iface().LinkUp() && !m.Iface().Lossy()
	case faults.DiskDegraded:
		m := c.Machines[comp/2]
		d := m.Disks().Disks()[comp%2]
		return m.Up() && !d.Faulty() && !d.Degraded()
	}
	return false
}
