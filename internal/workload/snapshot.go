package workload

import (
	"cmp"
	"slices"

	"press/internal/cnet"
	"press/internal/simnet"
	"press/internal/snapio"
)

// Snapshot support. The generator serializes its arrival process (rng,
// cursors), the recorder, and every in-flight request. Request records
// are defined in ctx.Owners so the network section can reference them as
// dial owners; a request's deadlines travel as their keys, and the
// arrival tick and each deadline list's wake are claimed from the pending
// table and re-armed pinned on load.

// SnapState moves the generator, recorder, and in-flight requests;
// loading, into a freshly built generator (same config, same topology).
func (g *Generator) SnapState(x *snapio.Ctx) {
	x.Rand(g.rng)
	x.Bool(&g.running)
	snapio.Int(x, &g.started)
	x.U64(&g.next)
	snapio.Int(x, &g.rr)
	x.U64(&g.completeCancelled)

	rec := g.rec
	x.U64(&rec.Offered)
	x.U64(&rec.Succeeded)
	x.U64(&rec.Failed)
	x.U64(&rec.ConnectFailures)
	x.U64(&rec.CompleteFailures)
	snapio.Int(x, &rec.latencySum)
	rec.Throughput.SnapState(x)
	rec.Offers.SnapState(x)
	rec.Failures.SnapState(x)

	// The arrival tick: at most one, held by no handle.
	ticks := snapio.Claim(x, genNext, func(og *Generator) bool { return og == g })
	if len(ticks) > 1 {
		snapio.Failf("workload: multiple pending arrival ticks")
	}
	var tick snapio.PendingEvent
	ticking := len(ticks) == 1
	if ticking {
		tick = ticks[0]
	}
	if x.Bool(&ticking); ticking {
		if x.Slot(&tick); !x.Saving() {
			g.sim.RestoreAtArg(tick.At, tick.Seq, genNext, g)
		}
	}

	snapio.Slice(x, &g.reqLive, 1<<20, func(rp **request) {
		if !x.Saving() {
			*rp = g.newRequest()
		}
		r := *rp
		x.Define(r)
		snapio.Int(x, &r.now)
		x.U64(&r.id)
		snapio.Int(x, &r.doc)
		x.Bool(&r.done)
		snapio.Int(x, &r.refs)
		snapio.OptConn(x, &r.conn)
		if !x.Saving() && r.conn != nil {
			cnet.RetainConn(r.conn) // no-op on snapshot-built conns; keeps the pin balanced
			end, ok := r.conn.(*simnet.End)
			if !ok {
				snapio.Failf("workload: conn %T cannot restore handlers", r.conn)
			}
			end.RestoreHandlers(simnet.Direct, r.h)
		}
		// A request's deadlines travel as their keys; the lists are
		// rebuilt from them.
		for k := range r.dl {
			d := &r.dl[k]
			if x.Bool(&d.listed); d.listed {
				snapio.Int(x, &d.at)
				x.U64(&d.seq)
			}
		}
	})
	if !x.Saving() {
		for i, r := range g.reqLive {
			r.slot = i
		}
	}

	for k := range g.lists {
		l := &g.lists[k]
		if !x.Saving() {
			// Arming order is key order.
			var listed []*request
			for _, r := range g.reqLive {
				if r.dl[k].listed {
					listed = append(listed, r)
				}
			}
			slices.SortFunc(listed, func(a, b *request) int { return cmp.Compare(a.dl[k].seq, b.dl[k].seq) })
			l.head, l.tail = nil, nil
			for _, r := range listed {
				g.link(k, r)
			}
		}
		// The list's wake: at most one, held by no handle.
		wakes := snapio.Claim(x, wakeFn(k), func(og *Generator) bool { return og == g })
		if len(wakes) > 1 || x.Saving() && len(wakes) == 1 != g.woken[k] {
			snapio.Failf("workload: %d pending wakes for deadline list %d (armed %v)", len(wakes), k, g.woken[k])
		}
		var wake snapio.PendingEvent
		if len(wakes) == 1 {
			wake = wakes[0]
		}
		if x.Bool(&g.woken[k]); g.woken[k] {
			if x.Slot(&wake); !x.Saving() {
				g.sim.RestoreAtArg(wake.At, wake.Seq, wakeFn(k), g)
			}
		}
	}
}
