package workload

import (
	"time"

	"press/internal/cnet"
	"press/internal/sim"
	"press/internal/simnet"
	"press/internal/snapio"
	"press/internal/trace"
)

// Snapshot support. The generator serializes its arrival process (rng,
// cursors), the recorder, and every in-flight request. Request records
// register in ctx.Owners so the network section can reference them as
// dial owners; their pending kernel timers (connect deadline, complete
// timeout) and the arrival tick are claimed from the pending table and
// re-armed pinned on load.

// RestoreDial implements simnet.DialRestorer: an in-flight handshake
// owned by a request gets its handlers and result callback back.
func (r *request) RestoreDial() (cnet.StreamHandlers, func(cnet.Conn, error)) {
	return r.h, r.onDial
}

// SaveState serializes the generator, recorder, and in-flight requests.
func (g *Generator) SaveState(ctx *snapio.Ctx) {
	e := ctx.Enc
	snapio.SaveRand(e, g.rng)
	e.Bool(g.running)
	e.Dur(g.started)
	e.U64(g.next)
	e.Int(g.rr)
	e.U64(g.completeCancelled)

	rec := g.rec
	e.U64(rec.Offered)
	e.U64(rec.Succeeded)
	e.U64(rec.Failed)
	e.U64(rec.ConnectFailures)
	e.U64(rec.CompleteFailures)
	e.Dur(rec.latencySum)
	rec.Throughput.SaveState(ctx)
	rec.Offers.SaveState(ctx)
	rec.Failures.SaveState(ctx)

	// Claim this generator's pending kernel events in one pass: the
	// arrival tick plus each request's two timeout timers.
	fnGen := snapio.FnPtr(genNext)
	fnConn := snapio.FnPtr(reqConnectTimeout)
	fnComp := snapio.FnPtr(reqCompleteTimeout)
	type pend struct {
		at  time.Duration
		seq uint64
		ok  bool
	}
	var genTick pend
	connect := map[*request]pend{}
	complete := map[*request]pend{}
	for _, ev := range ctx.ClaimWhere(func(ev snapio.PendingEvent) bool {
		if ev.AFn == nil {
			return false
		}
		switch snapio.FnPtr(ev.AFn) {
		case fnGen:
			return ev.Arg.(*Generator) == g
		case fnConn, fnComp:
			return ev.Arg.(*request).g == g
		}
		return false
	}) {
		p := pend{at: ev.At, seq: ev.Seq, ok: true}
		switch snapio.FnPtr(ev.AFn) {
		case fnGen:
			if genTick.ok {
				snapio.Failf("workload: multiple pending arrival ticks")
			}
			genTick = p
		case fnConn:
			connect[ev.Arg.(*request)] = p
		case fnComp:
			complete[ev.Arg.(*request)] = p
		}
	}

	encPend := func(p pend) {
		e.Bool(p.ok)
		if p.ok {
			e.Dur(p.at)
			e.U64(p.seq)
		}
	}
	// encTimer saves a request's timeout as the pending event claimed for
	// it, after checking that the handle the request would cancel it with
	// agrees: a live handle without its event (or the reverse) would
	// restore a request that cannot stop its own timer.
	encTimer := func(r *request, name string, t sim.Timer, p pend) {
		if at, armed := t.When(); armed != p.ok || (armed && at != p.at) {
			snapio.Failf("workload: request %d %s handle (armed %v at %v) disagrees with its pending event (%v at %v)",
				r.id, name, armed, at, p.ok, p.at)
		}
		encPend(p)
	}

	encPend(genTick)

	e.Int(len(g.reqLive))
	for _, r := range g.reqLive {
		e.U64(ctx.Owners.Ref(r))
		e.Dur(r.now)
		e.U64(r.id)
		e.I64(int64(r.doc))
		e.Bool(r.done)
		e.Int(r.refs)
		e.Bool(r.conn != nil)
		if r.conn != nil {
			e.U64(ctx.Conns.Ref(r.conn))
		}
		encTimer(r, "connect deadline", r.connectDeadline, connect[r])
		encTimer(r, "complete timeout", r.completeTimeout, complete[r])
	}
}

// LoadState restores SaveState into a freshly built generator (same
// config, same topology).
func (g *Generator) LoadState(ctx *snapio.Ctx) {
	d := ctx.Dec
	snapio.LoadRand(d, g.rng)
	g.running = d.Bool()
	g.started = d.Dur()
	g.next = d.U64()
	g.rr = d.Int()
	g.completeCancelled = d.U64()

	rec := g.rec
	rec.Offered = d.U64()
	rec.Succeeded = d.U64()
	rec.Failed = d.U64()
	rec.ConnectFailures = d.U64()
	rec.CompleteFailures = d.U64()
	rec.latencySum = d.Dur()
	rec.Throughput.LoadState(ctx)
	rec.Offers.LoadState(ctx)
	rec.Failures.LoadState(ctx)

	decPend := func() (time.Duration, uint64, bool) {
		if !d.Bool() {
			return 0, 0, false
		}
		at := d.Dur()
		return at, d.U64(), true
	}

	if at, seq, ok := decPend(); ok {
		g.sim.RestoreAtArg(at, seq, genNext, g)
	}

	for k := d.Count(1 << 20); k > 0; k-- {
		ownerID := d.U64()
		r := g.newRequest()
		r.now = d.Dur()
		r.id = d.U64()
		r.doc = trace.DocID(d.I64())
		r.done = d.Bool()
		r.refs = d.Int()
		r.slot = len(g.reqLive)
		g.reqLive = append(g.reqLive, r)
		ctx.Owners.Put(ownerID, r)
		if d.Bool() {
			ref := d.U64()
			c, ok := ctx.Conns.Obj(ref).(cnet.Conn)
			if !ok {
				snapio.Failf("workload: conn ref %d is not a conn", ref)
			}
			r.conn = c
			cnet.RetainConn(c) // no-op on snapshot-built conns; keeps the pin balanced
			hr, ok := c.(simnet.HandlerRestorer)
			if !ok {
				snapio.Failf("workload: conn %T cannot restore handlers", c)
			}
			hr.RestoreHandlers(r.h)
		}
		if at, seq, ok := decPend(); ok {
			r.connectDeadline = g.sim.RestoreAtArg(at, seq, reqConnectTimeout, r)
		}
		if at, seq, ok := decPend(); ok {
			r.completeTimeout = g.sim.RestoreAtArg(at, seq, reqCompleteTimeout, r)
		}
	}
}
