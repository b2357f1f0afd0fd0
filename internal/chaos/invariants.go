package chaos

import (
	"fmt"

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
	return Invariant{
		Name: "queues-drain",
		Doc:  "peer send queues drain below the reroute threshold after repair",
		Check: func(r *Result) string {
			if r.ActiveFaults != 0 {
				return fmt.Sprintf("%d fault slots still active after the schedule ended", r.ActiveFaults)
			}
			if r.SendQueueMax >= qmon.RerouteThreshold {
				return fmt.Sprintf("peer send queue still at %d (reroute threshold %d) after drain", r.SendQueueMax, qmon.RerouteThreshold)
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
