package chaos

import (
	"fmt"
	"time"

	"press/internal/faults"
	"press/internal/metrics"
	"press/internal/qmon"
)

// Invariant is one cluster property a chaos run must preserve. Check
// returns "" when the result satisfies it and a human-readable detail
// when it does not.
type Invariant struct {
	Name  string
	Doc   string
	Check func(*Result) string
}

// Converges: once every fault is repaired and the operator has had a
// bounded number of resets, the cluster must be whole again — every
// machine up, every process alive, every cooperation view complete.
// This is the membership-layer promise (§6) under compound faults.
func Converges() Invariant {
	return Invariant{
		Name: "converges",
		Doc:  "membership reconverges to the full reachable set once faults quiesce",
		Check: func(r *Result) string {
			if r.Reintegrated {
				return ""
			}
			return fmt.Sprintf("cluster never became whole: %d/%d nodes up, views %v after %d resets",
				r.LiveNodes, r.Nodes, r.ViewSizes, r.Resets)
		},
	}
}

// Conservation: no request is accepted and then lost without a verdict —
// every offered request is eventually either served or rejected.
func Conservation() Invariant {
	return Invariant{
		Name: "conservation",
		Doc:  "offered == served + rejected (no accepted-then-lost requests)",
		Check: func(r *Result) string {
			if r.Offered == r.Succeeded+r.Failed {
				return ""
			}
			return fmt.Sprintf("offered %d != served %d + rejected %d (lost %d)",
				r.Offered, r.Succeeded, r.Failed, int64(r.Offered)-int64(r.Succeeded+r.Failed))
		},
	}
}

// QueuesDrain: after the last repair plus grace, no peer send queue may
// still be above the queue monitor's reroute threshold and no fault slot
// may still be active — lingering backlog means some repair never
// propagated.
func QueuesDrain() Invariant {
	limit := qmon.DefaultConfig().RerouteThreshold
	return Invariant{
		Name: "queues-drain",
		Doc:  "peer send queues drain below the reroute threshold after repair",
		Check: func(r *Result) string {
			if r.ActiveFaults != 0 {
				return fmt.Sprintf("%d fault slots still active after the schedule ended", r.ActiveFaults)
			}
			if r.SendQueueMax >= limit {
				return fmt.Sprintf("peer send queue still at %d (reroute threshold %d) after drain", r.SendQueueMax, limit)
			}
			return ""
		},
	}
}

// FMEBound: on FME-bearing versions, every steady non-crash application
// fault lasting past the enforcement bound — with no other fault
// overlapping it — must be converted into a crash (an fme.action) within
// that bound. This is §7's fault-model enforcement promise.
func FMEBound() Invariant {
	return Invariant{
		Name: "fme-bound",
		Doc:  "FME converts every isolated non-crash app fault to a crash within its bound",
		Check: func(r *Result) string {
			if len(r.FMEMisses) == 0 {
				return ""
			}
			return fmt.Sprintf("%d unconverted hangs: %v", len(r.FMEMisses), r.FMEMisses)
		},
	}
}

// AvailabilityFloor: measured availability must not fall below the
// analytic schedule-derived lower bound (blackout for every fault
// window plus recovery grace, overlap-merged, minus margin). A breach
// means some fault cost more than the single-fault model's worst case —
// a compound-fault interaction the model does not predict.
func AvailabilityFloor() Invariant {
	return Invariant{
		Name: "availability-floor",
		Doc:  "availability never drops below the analytic single-fault floor",
		Check: func(r *Result) string {
			if r.Availability >= r.Floor {
				return ""
			}
			return fmt.Sprintf("availability %.5f below floor %.5f", r.Availability, r.Floor)
		},
	}
}

// AvailabilityAtLeast is a parameterized floor for targeted experiments
// (the shrinker tests seed violations with it).
func AvailabilityAtLeast(min float64) Invariant {
	return Invariant{
		Name: "availability-at-least",
		Doc:  fmt.Sprintf("availability stays at or above %.3f", min),
		Check: func(r *Result) string {
			if r.Availability >= min {
				return ""
			}
			return fmt.Sprintf("availability %.5f below required %.3f", r.Availability, min)
		},
	}
}

// grayNode maps a gray schedule entry to the node it degrades.
func grayNode(e Entry) int {
	if e.Fault == faults.DiskDegraded {
		return e.Component / 2
	}
	return e.Component
}

// soloGray visits every steady gray entry of at least minSpan whose
// active window no other entry overlaps — the only entries whose
// detection behavior is attributable to one fault.
func soloGray(r *Result, minSpan time.Duration, visit func(e Entry)) {
	for i, e := range r.Schedule {
		if !faults.Gray(e.Fault) || e.Flapping() || e.Duration < minSpan {
			continue
		}
		solo := true
		for j, f := range r.Schedule {
			if i != j && e.At < f.End() && f.At < e.End() {
				solo = false
				break
			}
		}
		if solo {
			visit(e)
		}
	}
}

// detectionKinds are the event classes that count as "some subsystem
// noticed this node": heartbeat/probe detection, membership removal,
// cooperation-view exclusion, and the queue monitor's two verdicts.
var detectionKinds = []metrics.KindID{
	metrics.KDetect, metrics.KExclude, metrics.KMemberLeave,
	metrics.KQMonReroute, metrics.KQMonFail, metrics.KFMEAction,
}

// GrayDetected: every isolated, steady gray fault lasting at least the
// bound must draw SOME detection-class event naming the degraded node
// within that bound. This is the gray-detection-latency question the
// paper leaves open — its detectors (heartbeats, FME probes, TCP errors)
// are all binary, so this invariant legitimately fails on versions whose
// only gray signal is the queue monitor. Opt-in (not in
// DefaultInvariants); gray campaigns use it to measure which subsystems
// see partial degradation at all.
func GrayDetected(bound time.Duration) Invariant {
	return Invariant{
		Name: "gray-detected",
		Doc:  fmt.Sprintf("every isolated gray fault is noticed by some detector within %s", bound),
		Check: func(r *Result) string {
			var missed []string
			soloGray(r, bound, func(e Entry) {
				node := grayNode(e)
				winFrom, winTo := r.Start+e.At, r.Start+e.At+bound
				for _, kind := range detectionKinds {
					if _, ok := r.Log.Query().Kind(kind).Node(node).After(winFrom).
						FirstWhere(func(ev metrics.Event) bool { return ev.At <= winTo }); ok {
						return
					}
				}
				missed = append(missed, fmt.Sprintf("%s: node %d undetected within %s", e, node, bound))
			})
			if len(missed) == 0 {
				return ""
			}
			return fmt.Sprintf("%d undetected gray faults: %v", len(missed), missed)
		},
	}
}

// NoFalseEviction: a node whose only fault is NodeSlow — degraded but
// alive, answering every probe — must not be evicted from membership or
// declared failed outright; the graceful response is rerouting
// (qmon.reroute), not exclusion. A violation means some subsystem
// translated "slow" into "dead", the gray misclassification the
// Beowulf performability literature warns about. Opt-in.
func NoFalseEviction() Invariant {
	evict := []metrics.KindID{metrics.KExclude, metrics.KMemberLeave, metrics.KQMonFail}
	return Invariant{
		Name: "no-false-eviction",
		Doc:  "a merely-slow node is rerouted around, never evicted or declared failed",
		Check: func(r *Result) string {
			var evicted []string
			soloGray(r, 0, func(e Entry) {
				if e.Fault != faults.NodeSlow {
					return
				}
				node := grayNode(e)
				winFrom, winTo := r.Start+e.At, r.Start+e.End()
				for _, kind := range evict {
					if ev, ok := r.Log.Query().Kind(kind).Node(node).After(winFrom).
						FirstWhere(func(ev metrics.Event) bool { return ev.At <= winTo }); ok {
						evicted = append(evicted, fmt.Sprintf("%s: node %d hit %s at %s", e, node, kind, ev.At))
						return
					}
				}
			})
			if len(evicted) == 0 {
				return ""
			}
			return fmt.Sprintf("%d false evictions: %v", len(evicted), evicted)
		},
	}
}

// DefaultInvariants is the standing catalog every campaign checks.
func DefaultInvariants() []Invariant {
	return []Invariant{
		Converges(),
		Conservation(),
		QueuesDrain(),
		FMEBound(),
		AvailabilityFloor(),
	}
}

// Check runs the catalog over a result and collects the violations.
func Check(r *Result, invs []Invariant) []Violation {
	var out []Violation
	for _, inv := range invs {
		if detail := inv.Check(r); detail != "" {
			out = append(out, Violation{Invariant: inv.Name, Detail: detail})
		}
	}
	return out
}
