package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call pressbench made into a layer. Parent is the ID
// of the span that was open on the same goroutine when this one started
// (0 for a root). Apportion marks a span whose callee interleaves every
// model layer (Sim.RunFor and the harness/chaos calls that wrap it): its
// self time cannot be split from outside except by the CPU profile.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	Name      string `json:"name"`
	Layer     string `json:"layer"`
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	StartNs   int64  `json:"start_ns"`
	EndNs     int64  `json:"end_ns"`
	Apportion bool   `json:"apportion,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced pass pays nothing for it.
type recorder struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	seed     int64
	spans    []span
}

func newRecorder(workload string, seed int64) *recorder {
	return &recorder{t0: time.Now(), workload: workload, seed: seed}
}

// start opens a span under parent and returns its ID.
func (r *recorder) start(parent int, name, layer string, apportion bool) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Layer: layer,
		Workload: r.workload, Seed: r.seed, StartNs: now, Apportion: apportion,
	})
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNs = now
	r.mu.Unlock()
}

// timed runs fn as a span and returns its host duration; it times fn the
// same way when the recorder is nil.
func (r *recorder) timed(parent int, name, layer string, apportion bool, fn func(id int)) time.Duration {
	id := r.start(parent, name, layer, apportion)
	t0 := time.Now()
	fn(id)
	d := time.Since(t0)
	r.end(id)
	return d
}

// do times a call into one layer; fn gets the span's ID to hang
// children on.
func (r *recorder) do(parent int, name, layer string, fn func(id int)) time.Duration {
	return r.timed(parent, name, layer, false, fn)
}

// doSim times a call that drives the simulator.
func (r *recorder) doSim(parent int, name, layer string, fn func()) time.Duration {
	return r.timed(parent, name, layer, true, func(int) { fn() })
}

func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children may overlap one
// another (two live clients), so the covered part is the union of their
// intervals clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ from, to int64 }
	children := map[int][]iv{}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], iv{s.StartNs, s.EndNs})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].from < ivs[j].from })
		covered, edge := int64(0), s.StartNs
		for _, c := range ivs {
			from, to := c.from, c.to
			if from < edge {
				from = edge
			}
			if to > s.EndNs {
				to = s.EndNs
			}
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// layerSelfMs sums span self time per layer. The self time of a span
// marked Apportion is split over the layers by the workload's CPU-profile
// shares, the only view from outside into a Sim.RunFor.
func layerSelfMs(spans []span, shares map[string]float64) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		ms := float64(self[s.ID]) / 1e6
		if !s.Apportion || len(shares) == 0 {
			out[s.Layer] += ms
			continue
		}
		for layer, share := range shares {
			out[layer] += ms * share
		}
	}
	return out
}
