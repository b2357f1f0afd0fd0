// Package avail implements phase 2 of the paper's quantification
// methodology (§2): the analytic model that combines the 7-stage
// templates measured under single-fault injection (phase 1) with the
// expected fault load (Table 1) to produce expected average throughput
// (AT) and availability (AA), plus the paper's extensions — the hardware
// redundancy modeling of §6.1 and the cluster-size scaling rules of §6.3.
//
// With W0 the normal throughput, and for each fault class i with n_i
// components of MTTF_i, stage durations t_{i,s} and stage throughputs
// w_{i,s}:
//
//	AT = (1 − Σ_i n_i·T_i/MTTF_i)·W0 + Σ_i (n_i/MTTF_i)·Σ_s t_{i,s}·w_{i,s}
//	AA = AT / offered
//
// where T_i = Σ_s t_{i,s}. The model assumes faults are uncorrelated and
// non-overlapping (§2's stated limitations).
package avail

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"press/internal/faults"
	"press/internal/template7"
)

// Env holds the evaluator-supplied environmental parameters.
type Env struct {
	// OperatorResponse is the mean time until an operator resets a
	// service that cannot reintegrate on its own (stage E's duration).
	OperatorResponse time.Duration
}

// DefaultEnv matches DESIGN.md's calibration: a 30-minute mean operator
// response, which lands the base COOP configuration near the paper's
// 99.5% availability.
func DefaultEnv() Env { return Env{OperatorResponse: 30 * time.Minute} }

// FaultLoad pairs one fault class's expected load with its measured
// template.
type FaultLoad struct {
	Spec faults.Spec
	Tpl  template7.Template
}

// Result is the model's output.
type Result struct {
	AT float64 // expected average throughput, req/s
	AA float64 // expected availability, fraction of offered requests served
	// Unavailability is 100·(1−AA), in percent — the paper's bar unit.
	Unavailability float64
	// ByFault decomposes Unavailability into per-fault-class percentage
	// points (the stacked bars of Figure 7).
	ByFault map[string]float64
}

// Availability evaluates the model. w0 is the measured fault-free
// throughput; offered is the offered load (the availability denominator —
// see the paper's footnote 1).
func Availability(w0, offered float64, loads []FaultLoad, env Env) (Result, error) {
	if offered <= 0 {
		return Result{}, fmt.Errorf("avail: offered load must be positive")
	}
	if w0 > offered {
		w0 = offered // delivered cannot exceed offered in expectation
	}
	res := Result{ByFault: make(map[string]float64, len(loads))}
	faultFraction := 0.0
	faultThroughput := 0.0
	for _, l := range loads {
		if err := l.Tpl.Validate(); err != nil {
			return Result{}, err
		}
		if l.Spec.MTTF <= 0 || l.Spec.Components <= 0 {
			continue
		}
		durs := l.Tpl.ModelDurations(l.Spec.MTTR, env.OperatorResponse)
		rate := float64(l.Spec.Components) / l.Spec.MTTF.Seconds() // faults/sec
		var total, work float64
		for s := template7.StageA; s < template7.NumStages; s++ {
			d := durs[s].Seconds()
			w := l.Tpl.Throughputs[s]
			if w > offered {
				w = offered
			}
			total += d
			work += d * w
		}
		faultFraction += rate * total
		faultThroughput += rate * work
		res.ByFault[l.Spec.Type.String()] += rate * (total*offered - work) / offered * 100
	}
	if faultFraction > 1 {
		return Result{}, fmt.Errorf("avail: expected fault fraction %.2f > 1; faults overlap, model invalid", faultFraction)
	}
	// AT is at most offered: every stage's throughput and w0 are, and the
	// stages' time fraction is at most 1. When every stage serves the
	// whole load the sum can still round an ulp above it, which would
	// read as an availability above 1.
	res.AT = min((1-faultFraction)*w0+faultThroughput, offered)
	res.AA = res.AT / offered
	res.Unavailability = 100 * (1 - res.AA)
	return res, nil
}

// String renders a result line.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "AT=%.1f req/s  AA=%.5f  unavailability=%.4f%%\n", r.AT, r.AA, r.Unavailability)
	keys := make([]string, 0, len(r.ByFault))
	for k := range r.ByFault {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-18s %.4f%%\n", k, r.ByFault[k])
	}
	return b.String()
}

// --- Hardware redundancy (§6.1) --------------------------------------------

// satDuration converts float nanoseconds to a Duration, saturating.
func satDuration(ns float64) time.Duration {
	const max = float64(1<<63 - 1)
	if ns >= max {
		return time.Duration(1<<63 - 1)
	}
	if ns <= 0 {
		return 0
	}
	return time.Duration(ns)
}

// The paper's §6.1 redundancy outcomes, expressed as MTTF multipliers:
// per-node RAID takes a disk from one fault per year to one per 438
// years; a backup switch takes the switch from one per year to one per 40
// years.
const (
	RAIDMTTFFactor        = 438
	BackupSwitchMTTFactor = 40
)

// WithRAID scales the SCSI fault class's MTTF for the all-nodes-RAID
// configuration.
func WithRAID(loads []FaultLoad) []FaultLoad {
	return scaleMTTF(loads, faults.SCSITimeout, RAIDMTTFFactor)
}

// WithBackupSwitch scales the switch fault class's MTTF.
func WithBackupSwitch(loads []FaultLoad) []FaultLoad {
	return scaleMTTF(loads, faults.SwitchDown, BackupSwitchMTTFactor)
}

// WithRedundantFrontend scales the front-end fault class: a redundant
// front-end pair with IP take-over behaves like the backup switch.
func WithRedundantFrontend(loads []FaultLoad) []FaultLoad {
	return scaleMTTF(loads, faults.FrontendFailure, BackupSwitchMTTFactor)
}

func scaleMTTF(loads []FaultLoad, t faults.Type, factor float64) []FaultLoad {
	out := make([]FaultLoad, len(loads))
	copy(out, loads)
	for i := range out {
		if out[i].Spec.Type == t {
			out[i].Spec.MTTF = satDuration(float64(out[i].Spec.MTTF) * factor)
		}
	}
	return out
}

// --- Cluster-size scaling (§6.3) --------------------------------------------

// ScaleLoads applies the paper's scaling rules to project measurements
// from an n-node cluster onto a k·n-node cluster:
//
//   - per-node component counts grow by k (switch and front-end do not);
//   - stage durations are unchanged;
//   - normal throughput grows by k (same bottleneck resource assumed);
//   - a stage throughput that represents losing the faulty node's share,
//     w = (1−m/n)·W0, becomes (1−m/(kn))·k·W0 — while total-outage
//     stages (w ≈ 0) remain total outages at any size.
//
// outageFrac is the relative-throughput threshold below which a stage is
// treated as a full outage (the paper uses "drops to 0"); 0.1 is a
// reasonable instantiation.
func ScaleLoads(loads []FaultLoad, k float64, outageFrac float64) []FaultLoad {
	if k <= 0 {
		panic("avail: non-positive scale factor")
	}
	out := make([]FaultLoad, len(loads))
	copy(out, loads)
	for i := range out {
		sp := out[i].Spec
		switch sp.Type {
		case faults.SwitchDown, faults.FrontendFailure:
			// cluster-singleton components
		default:
			sp.Components = int(float64(sp.Components)*k + 0.5)
		}
		out[i].Spec = sp
		out[i].Tpl = ScaleTemplate(out[i].Tpl, k, outageFrac)
	}
	return out
}

// ScaleTemplate applies the throughput-scaling rules to one template.
func ScaleTemplate(t template7.Template, k float64, outageFrac float64) template7.Template {
	if t.Normal <= 0 {
		return t
	}
	w0 := t.Normal
	t.Normal = w0 * k
	for s := template7.StageA; s < template7.NumStages; s++ {
		r := t.Throughputs[s] / w0
		if r < outageFrac {
			continue // a total outage stays total at any cluster size
		}
		lost := 1 - r // fraction of capacity lost at size n
		rScaled := 1 - lost/k
		if rScaled < 0 {
			rScaled = 0
		}
		t.Throughputs[s] = rScaled * t.Normal
	}
	return t
}
