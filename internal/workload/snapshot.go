package workload

import (
	"press/internal/cnet"
	"press/internal/simnet"
	"press/internal/snapio"
)

// Snapshot support. The generator serializes its arrival process (rng,
// cursors), the recorder, and every in-flight request. Request records
// are defined in ctx.Owners so the network section can reference them as
// dial owners; their pending kernel timers (connect deadline, complete
// timeout) and the arrival tick are claimed from the pending table and
// re-armed pinned on load.

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
			hr, ok := r.conn.(simnet.HandlerRestorer)
			if !ok {
				snapio.Failf("workload: conn %T cannot restore handlers", r.conn)
			}
			hr.RestoreHandlers(r.h)
		}
		// A request's timeouts are saved as the pending events its handles
		// name, so a live handle without its event fails the save here and
		// an event without a live handle fails it as unclaimed: either would
		// restore a request that cannot stop its own timer.
		x.TimerArg(&r.connectDeadline, reqConnectTimeout, r, "workload: connect deadline")
		x.TimerArg(&r.completeTimeout, reqCompleteTimeout, r, "workload: complete timeout")
	})
	if !x.Saving() {
		for i, r := range g.reqLive {
			r.slot = i
		}
	}
}
