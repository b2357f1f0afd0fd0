// Package template7 implements phase 1 of the paper's quantification
// methodology (§2): the 7-stage piecewise-linear template that describes a
// service's behaviour across one fault episode, and its extraction from an
// instrumented fault-injection run.
//
// The stages (Figure 2):
//
//	A  fault active, undetected          (event 1 → 2)
//	B  transient while reconfiguring     (event 2 → 3)
//	C  stable degraded, fault present    (event 3 → 4)
//	D  transient after component repair  (event 4 → 5)
//	E  stable but suboptimal             (event 5 → 6)
//	F  operator reset in progress        (event 6 → 7)
//	G  transient after reset             (event 7 → 8)
//
// Each stage has a duration and an average throughput. Throughputs are
// always measured; some durations are measured (A, B, D, F, G) while
// others are environmental parameters substituted at modeling time (C is
// governed by the component's MTTR, E by the operator response time).
// Stages a fault does not exhibit get zero durations.
package template7

import (
	"fmt"
	"strings"
	"time"

	"press/internal/metrics"
)

// Stage indexes the template's seven stages.
type Stage int

// The seven stages in order.
const (
	StageA Stage = iota
	StageB
	StageC
	StageD
	StageE
	StageF
	StageG
	NumStages
)

func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return fmt.Sprintf("stage(%d)", int(s))
	}
	return string(rune('A' + int(s)))
}

// Template is one fault class's measured episode shape.
type Template struct {
	// Label names the fault class (e.g. "scsi-timeout").
	Label string
	// Normal is the fault-free delivered throughput (req/s).
	Normal float64
	// Durations are the measured stage lengths. C and E as measured only
	// reflect the observation schedule of the injection run; the model
	// substitutes MTTR and operator response via ModelDurations.
	Durations [NumStages]time.Duration
	// Throughputs are the measured average throughputs per stage (req/s).
	Throughputs [NumStages]float64
	// NeedsReset records whether the system failed to reintegrate by
	// itself after repair, so that an operator reset (stages E–G) applies.
	NeedsReset bool
}

// Validate checks internal consistency.
func (t Template) Validate() error {
	if t.Normal < 0 {
		return fmt.Errorf("template %s: negative normal throughput", t.Label)
	}
	for s := StageA; s < NumStages; s++ {
		if t.Durations[s] < 0 {
			return fmt.Errorf("template %s: negative duration in stage %s", t.Label, s)
		}
		if t.Throughputs[s] < 0 {
			return fmt.Errorf("template %s: negative throughput in stage %s", t.Label, s)
		}
	}
	return nil
}

// ModelDurations returns the effective stage durations for phase-2
// modeling: A, B, D, F, G as measured; C = MTTR − A − B (the component
// stays broken for its repair time); E = operator response when a reset
// is needed, else E–G collapse to zero.
func (t Template) ModelDurations(mttr, operatorResponse time.Duration) [NumStages]time.Duration {
	d := t.Durations
	c := mttr - d[StageA] - d[StageB]
	if c < 0 {
		c = 0
	}
	d[StageC] = c
	if t.NeedsReset {
		d[StageE] = operatorResponse
	} else {
		d[StageE], d[StageF], d[StageG] = 0, 0, 0
	}
	return d
}

// String renders the template as a compact table row set.
func (t Template) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "template %-18s normal=%7.1f req/s reset=%v\n", t.Label, t.Normal, t.NeedsReset)
	for s := StageA; s < NumStages; s++ {
		fmt.Fprintf(&b, "  %s: %8.1fs @ %7.1f req/s\n", s, t.Durations[s].Seconds(), t.Throughputs[s])
	}
	return b.String()
}

// Markers are the numbered template events located in an instrumented
// run's event log (virtual times). Zero-valued optional markers mean the
// stage did not occur.
type Markers struct {
	Fault   time.Duration // event 1: component fault occurs
	Detect  time.Duration // event 2: error detected
	Stable1 time.Duration // event 3: server stabilizes (degraded)
	Recover time.Duration // event 4: component repaired
	Stable2 time.Duration // event 5: server stabilizes again
	Reset   time.Duration // event 6: operator reset begins (0 if none)
	AllUp   time.Duration // event 7: all components back up (0 if none)
	End     time.Duration // event 8 / observation end
}

// Extract measures a Template from a throughput series and the event
// markers of a single-fault injection run. normal is the fault-free
// throughput measured before the fault.
func Extract(label string, tp *metrics.Series, m Markers, normal float64) (Template, error) {
	t := Template{Label: label, Normal: normal}
	if m.Detect < m.Fault || m.Stable1 < m.Detect || m.Recover < m.Stable1 {
		return t, fmt.Errorf("template %s: markers out of order: %+v", label, m)
	}
	type span struct {
		s        Stage
		from, to time.Duration
	}
	spans := []span{
		{StageA, m.Fault, m.Detect},
		{StageB, m.Detect, m.Stable1},
		{StageC, m.Stable1, m.Recover},
	}
	if m.Stable2 < m.Recover {
		return t, fmt.Errorf("template %s: stable2 %v before recover %v", label, m.Stable2, m.Recover)
	}
	spans = append(spans, span{StageD, m.Recover, m.Stable2})
	if m.Reset > 0 {
		t.NeedsReset = true
		if m.Reset < m.Stable2 || m.AllUp < m.Reset || m.End < m.AllUp {
			return t, fmt.Errorf("template %s: reset markers out of order: %+v", label, m)
		}
		spans = append(spans,
			span{StageE, m.Stable2, m.Reset},
			span{StageF, m.Reset, m.AllUp},
			span{StageG, m.AllUp, m.End},
		)
	} else {
		spans = append(spans, span{StageE, m.Stable2, m.End})
	}
	for _, sp := range spans {
		if sp.to <= sp.from {
			continue // stage absent
		}
		t.Durations[sp.s] = sp.to - sp.from
		t.Throughputs[sp.s] = tp.MeanRate(sp.from, sp.to)
	}
	return t, t.Validate()
}

// FindStable locates the "server stabilizes" events: the first instant at
// or after `from` (bounded by `limit`) where the series holds steady for
// `window` buckets within tol. When the series never stabilizes inside
// the bound, limit is returned — the evaluator's fallback, mirroring the
// methodology's reliance on scripted observation windows.
func FindStable(tp *metrics.Series, from, limit time.Duration, window int, tol float64) time.Duration {
	at, ok := metrics.StableAfter(tp, from, window, tol)
	if !ok || at > limit {
		return limit
	}
	if at < from {
		return from
	}
	return at
}
