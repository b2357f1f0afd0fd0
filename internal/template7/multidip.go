// Multi-dip episode extraction. The single-fault methodology assumes one
// throughput dip per episode: fault, transient, degraded plateau,
// recovery transient, done. Gray and correlated faults break that shape —
// a lossy link flaps the queue monitor, a fault-during-recovery opens a
// second hole while the first is still closing — so an episode can show
// several distinct excursions. FindDips locates them; ExtractMulti fits
// the standard template to the episode anyway, tolerating the marker
// disorder a secondary dip induces instead of refusing to fit.
package template7

import (
	"time"

	"press/internal/metrics"
)

// DefaultDipFrac is the throughput fraction below which a bucket counts
// as "in a dip": 75% of the fault-free level, comfortably under Poisson
// noise at the loads the campaigns run but above every degraded plateau
// the Table 1 faults produce.
const DefaultDipFrac = 0.75

// dipMergeGap is the number of consecutive above-threshold buckets that
// ends a dip. Shorter recoveries are noise (a lucky second of retries
// landing), not a genuine return to service.
const dipMergeGap = 3

// Dip is one contiguous excursion of the throughput series below a
// fraction of the fault-free level.
type Dip struct {
	From, To time.Duration // [From, To): first and one-past-last dip bucket
	Min      float64       // lowest per-second rate inside the dip
	Depth    float64       // 1 - Min/normal, clamped to [0, 1]
}

// FindDips scans the throughput series over [from, to) and returns every
// maximal run of buckets whose rate falls below frac*normal, in time
// order. Runs separated by fewer than dipMergeGap recovered buckets are
// merged. frac <= 0 selects DefaultDipFrac; a non-positive normal yields
// no dips (nothing to fall below).
func FindDips(tp *metrics.Series, from, to time.Duration, normal, frac float64) []Dip {
	if normal <= 0 {
		return nil
	}
	if frac <= 0 {
		frac = DefaultDipFrac
	}
	thr := frac * normal
	w := tp.Width
	lo := int(from / w)
	if lo < 0 {
		lo = 0
	}
	hi := int((to + w - 1) / w)
	if hi > tp.Len() {
		hi = tp.Len()
	}
	b := tp.Buckets()
	sec := w.Seconds()

	var dips []Dip
	inDip := false
	var start, gap int
	var min float64
	flush := func(end int) {
		depth := 1 - min/normal
		if depth < 0 {
			depth = 0
		} else if depth > 1 {
			depth = 1
		}
		dips = append(dips, Dip{
			From:  time.Duration(start) * w,
			To:    time.Duration(end) * w,
			Min:   min,
			Depth: depth,
		})
	}
	for i := lo; i < hi; i++ {
		rate := b[i] / sec
		if rate < thr {
			if !inDip {
				inDip, start, min = true, i, rate
			} else if rate < min {
				min = rate
			}
			gap = 0
			continue
		}
		if inDip {
			gap++
			if gap >= dipMergeGap {
				flush(i - gap + 1)
				inDip, gap = false, 0
			}
		}
	}
	if inDip {
		flush(hi - gap)
	}
	return dips
}

// clampMarkers forces the marker sequence monotone. A secondary dip can
// push a stabilization search past the next scripted event — the series
// never steadies between the repair and the reset because a chased fault
// reopened the hole — which Extract rejects as disorder. Clamping each
// marker to at least its predecessor collapses the contradicted stage to
// zero duration instead: honest (the stage was never observed) and
// exactly what the template does for stages a fault does not exhibit.
func clampMarkers(m Markers) Markers {
	if m.Detect < m.Fault {
		m.Detect = m.Fault
	}
	if m.Stable1 < m.Detect {
		m.Stable1 = m.Detect
	}
	if m.Recover < m.Stable1 {
		m.Recover = m.Stable1
	}
	if m.Stable2 < m.Recover {
		m.Stable2 = m.Recover
	}
	if m.Reset > 0 {
		if m.Reset < m.Stable2 {
			m.Reset = m.Stable2
		}
		if m.AllUp < m.Reset {
			m.AllUp = m.Reset
		}
		if m.End < m.AllUp {
			m.End = m.AllUp
		}
	} else if m.End < m.Stable2 {
		m.End = m.Stable2
	}
	return m
}

// ExtractMulti fits the 7-stage template to an episode that may contain
// more than one throughput dip. Markers are clamped monotone first (see
// clampMarkers), so fitting cannot fail on the marker disorder a
// secondary dip induces, and the dips found over [Fault, End) are
// returned alongside the template so callers can tell a clean
// single-dip episode from a multi-dip one. frac <= 0 selects
// DefaultDipFrac. For well-ordered markers the returned template is
// identical to Extract's.
func ExtractMulti(label string, tp *metrics.Series, m Markers, normal, frac float64) (Template, []Dip, error) {
	cm := clampMarkers(m)
	t, err := Extract(label, tp, cm, normal)
	if err != nil {
		return t, nil, err
	}
	end := cm.End
	if end <= cm.Fault {
		end = cm.Stable2
	}
	return t, FindDips(tp, cm.Fault, end, normal, frac), nil
}
