// Package metrics provides the measurement plumbing for availability
// experiments: fixed-width time-bucketed series (the paper's per-second
// throughput curves, e.g. Figure 4), simple counters, a structured event
// log used to locate the stage boundaries of the 7-stage template, and a
// stabilization detector for finding the "server stabilizes" events of the
// template.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"
)

// Series accumulates values into fixed-width time buckets. Bucket i covers
// [i*Width, (i+1)*Width). It is the simulator-side equivalent of sampling
// "requests served per second" on the paper's testbed.
//
// A finished run's series is held (Hold): read-only, its first buckets
// an array it shares with every other run forked from the same capture,
// and the rest its own at their exact length. Every reader sees one
// bucket list, head then tail.
type Series struct {
	Width   time.Duration
	head    []float64 // a held series' shared first buckets, never written
	buckets []float64 // the buckets after head
	held    bool
}

// NewSeries returns a Series with the given bucket width (must be > 0).
func NewSeries(width time.Duration) *Series {
	if width <= 0 {
		panic("metrics: non-positive bucket width")
	}
	return &Series{Width: width}
}

// Add accumulates v into the bucket containing instant at. Negative
// instants are clamped to bucket 0. A held series refuses it.
func (s *Series) Add(at time.Duration, v float64) {
	if s.held {
		panic("metrics: Add on a held series")
	}
	i := int(at / s.Width)
	if i < 0 {
		i = 0
	}
	for len(s.buckets) <= i {
		s.buckets = append(s.buckets, 0)
	}
	s.buckets[i] += v
}

// Hold makes s read-only and keeps only what it made itself: its first
// len(head) buckets, which must equal head, become head itself, shared
// and never written, and the buckets after them a copy at their exact
// length. A nil head just cuts the buckets to their length.
func (s *Series) Hold(head []float64) {
	if s.held {
		panic("metrics: Hold on a held series")
	}
	if len(head) > len(s.buckets) || !slices.Equal(s.buckets[:len(head)], head) {
		panic("metrics: a held series must begin with its head")
	}
	s.head = head[:len(head):len(head)]
	s.buckets = slices.Clone(s.buckets[len(head):])
	s.held = true
}

// Buckets returns the bucket contents. The slice is owned by the Series
// (a held series with a head builds it, head then tail); callers must not
// modify it.
func (s *Series) Buckets() []float64 {
	if len(s.head) == 0 {
		return s.buckets
	}
	return append(s.head, s.buckets...)
}

// Len returns the number of buckets (index of the last touched bucket + 1).
func (s *Series) Len() int { return len(s.head) + len(s.buckets) }

// bucket returns bucket i, 0 <= i < Len.
func (s *Series) bucket(i int) float64 {
	if i < len(s.head) {
		return s.head[i]
	}
	return s.buckets[i-len(s.head)]
}

// At returns the bucket value containing the instant (0 beyond the end).
func (s *Series) At(at time.Duration) float64 {
	i := int(at / s.Width)
	if i < 0 || i >= s.Len() {
		return 0
	}
	return s.bucket(i)
}

// Sum returns the total accumulated over [from, to). Partial buckets at the
// edges are included in full; callers should align windows to bucket
// boundaries when exactness matters.
func (s *Series) Sum(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	lo := int(from / s.Width)
	hi := int((to + s.Width - 1) / s.Width)
	if lo < 0 {
		lo = 0
	}
	if hi > s.Len() {
		hi = s.Len()
	}
	var sum float64
	for i := lo; i < hi; i++ {
		sum += s.bucket(i)
	}
	return sum
}

// MeanRate returns the average per-second rate over [from, to).
func (s *Series) MeanRate(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	return s.Sum(from, to) / (to - from).Seconds()
}

// CSV renders the series as "seconds,value" lines, one per bucket, for the
// throughput-timeline figures.
func (s *Series) CSV() string {
	var b strings.Builder
	for i, v := range s.Buckets() {
		fmt.Fprintf(&b, "%.0f,%.2f\n", (time.Duration(i) * s.Width).Seconds(), v)
	}
	return b.String()
}

// StableAfter scans forward from instant `from` looking for the first
// instant at which the series has stabilized: `window` consecutive buckets
// whose values all lie within tol (relative) of the window mean. It returns
// the start of the stable window. This implements the "server stabilizes"
// events (3) and (5) of the paper's 7-stage template.
func StableAfter(s *Series, from time.Duration, window int, tol float64) (time.Duration, bool) {
	if window < 1 {
		window = 1
	}
	start := int(from / s.Width)
	if start < 0 {
		start = 0
	}
	for i := start; i+window <= s.Len(); i++ {
		var mean float64
		for j := i; j < i+window; j++ {
			mean += s.bucket(j)
		}
		mean /= float64(window)
		ok := true
		// Absolute slack keeps near-zero plateaus (total outage) stable
		// despite Poisson noise.
		slack := math.Max(tol*mean, 2)
		for j := i; j < i+window; j++ {
			if math.Abs(s.bucket(j)-mean) > slack {
				ok = false
				break
			}
		}
		if ok {
			return time.Duration(i) * s.Width, true
		}
	}
	return 0, false
}
