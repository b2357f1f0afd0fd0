// Package workload reproduces the paper's client side (§5): an open-loop
// Poisson request stream replaying the fixed-size synthetic trace against
// the server cluster, with the paper's exact timeout discipline — 2 s to
// establish a connection, 6 s after that to complete the request — and a
// recorder that produces the per-second throughput series and the offered
// vs. successfully-served counts that define availability ("the
// percentage of requests served successfully", §2).
//
// Clients attach to the simulated network directly (they are driver
// machines, not part of the system under test) and are deliberately
// unaffected by intra-cluster faults, as Mendosus arranged.
package workload

import (
	"math/rand"
	"time"

	"press/internal/cnet"
	"press/internal/metrics"
	"press/internal/server"
	"press/internal/sim"
	"press/internal/simnet"
	"press/internal/trace"
)

// Config drives one Generator.
type Config struct {
	// Rate is the total offered load, requests/second.
	Rate float64
	// Targets are the addresses requests rotate over: the server nodes
	// (round-robin DNS) or the front-end.
	Targets []cnet.NodeID
	// Catalog supplies document popularity.
	Catalog *trace.Catalog
	// RampUp, when positive, scales the offered rate linearly from zero
	// over this span (the paper warms the server up to its 90% load over
	// five minutes).
	RampUp time.Duration
}

// A request's connect and complete timeouts are the paper's 2 s / 6 s.
const (
	connectTimeout  = 2 * time.Second
	completeTimeout = 6 * time.Second
)

func (c Config) withDefaults() Config {
	if c.Catalog == nil {
		c.Catalog = trace.Default()
	}
	return c
}

// Recorder accumulates the client-observed outcome of a run.
type Recorder struct {
	Offered   uint64
	Succeeded uint64
	Failed    uint64

	ConnectFailures  uint64 // could not establish within 2 s (or refused/reset)
	CompleteFailures uint64 // connected but no answer within 6 s

	Throughput *metrics.Series // successful completions per bucket
	Offers     *metrics.Series
	Failures   *metrics.Series

	latencySum time.Duration
}

// NewRecorder allocates a recorder with 1-second buckets.
func NewRecorder() *Recorder {
	return &Recorder{
		Throughput: metrics.NewSeries(time.Second),
		Offers:     metrics.NewSeries(time.Second),
		Failures:   metrics.NewSeries(time.Second),
	}
}

// Availability returns the fraction of requests offered in [from, to)
// that were eventually served successfully, the paper's availability
// metric. It uses the bucketed series so that warm-up can be excluded.
func (r *Recorder) Availability(from, to time.Duration) float64 {
	offered := r.Offers.Sum(from, to)
	if offered == 0 {
		return 1
	}
	// Success is attributed to the offer bucket: failures series records
	// per-offer-time failures.
	failed := r.Failures.Sum(from, to)
	return (offered - failed) / offered
}

// MeanThroughput returns the average successful completions/s in a window.
func (r *Recorder) MeanThroughput(from, to time.Duration) float64 {
	return r.Throughput.MeanRate(from, to)
}

// MeanLatency returns the average latency of successful requests.
func (r *Recorder) MeanLatency() time.Duration {
	if r.Succeeded == 0 {
		return 0
	}
	return r.latencySum / time.Duration(r.Succeeded)
}

// Generator drives the request stream. It occupies one node ID on the
// simulated network (a client driver machine).
type Generator struct {
	sim     *sim.Sim
	iface   *simnet.Iface //availlint:skipfield iface interface backlink; simnet restores its own state
	cfg     Config        //availlint:skipfield cfg construction config, identical across forks
	rec     *Recorder
	rng     *rand.Rand
	running bool
	started time.Duration
	next    uint64
	rr      int
	// completeCancelled counts complete timeouts stopped before they
	// fired: each is one kernel event the schedule no longer carries, which
	// is how the pinned N=256 event count is derived rather than re-recorded
	// (TestScale256CancelledTimeoutsAccountForSchedule).
	completeCancelled uint64
	// lists holds the pending deadlines of each kind (connectDL,
	// completeDL) in the order they were armed, and woken says whether
	// each list's wake is pending.
	lists [2]deadlineList
	woken [2]bool
	// reqFree recycles request records (and their once-built handler
	// closures) so a steady-state request costs no heap allocation.
	reqFree cnet.MsgPool[request]
	// reqLive registers in-flight request records (launched, not yet
	// recycled) so snapshots can enumerate them; slot-indexed.
	reqLive []*request
	// reqPool recycles the ReqMsg wire records; the server releases them
	// after admission.
	reqPool cnet.MsgPool[server.ReqMsg]
}

// NewGenerator attaches a client driver to the network as node id.
func NewGenerator(s *sim.Sim, net *simnet.Network, id cnet.NodeID, cfg Config, rec *Recorder) *Generator {
	return &Generator{
		sim:   s,
		iface: net.AddIface(id),
		cfg:   cfg.withDefaults(),
		rec:   rec,
		rng:   s.NewRand("workload"),
	}
}

// Start begins the arrival process.
func (g *Generator) Start() {
	if g.running {
		return
	}
	if g.cfg.Rate <= 0 || len(g.cfg.Targets) == 0 {
		panic("workload: Rate and Targets are required")
	}
	g.running = true
	g.started = g.sim.Now()
	g.scheduleNext()
}

// Stop halts new arrivals; requests in flight run to completion.
func (g *Generator) Stop() { g.running = false }

func (g *Generator) currentRate() float64 {
	rate := g.cfg.Rate
	el := g.sim.Now() - g.started
	if g.cfg.RampUp <= 0 || el >= g.cfg.RampUp {
		return rate
	}
	frac := float64(el) / float64(g.cfg.RampUp)
	if frac < 0.05 {
		frac = 0.05
	}
	return rate * frac
}

func (g *Generator) scheduleNext() {
	if !g.running {
		return
	}
	mean := 1 / g.currentRate()
	gap := time.Duration(g.rng.ExpFloat64() * mean * float64(time.Second))
	g.sim.AfterArg(gap, genNext, g)
}

// genNext is the pooled arrival tick: launch one request, rearm.
func genNext(arg any) {
	g := arg.(*Generator)
	if !g.running {
		return
	}
	g.launch()
	g.scheduleNext()
}

// request carries the state of one in-flight request. Records are pooled
// on the Generator; the handler closures are built once per record and
// survive recycling (they only capture the record pointer). refs counts
// the callbacks still owed to the record (connect deadline, dial result,
// complete timeout), each of which either fires or is cancelled exactly
// once — when it reaches zero the connection is closed, no further
// callback can reference the record, and it returns to the pool. A
// finished request cancels its complete timeout, so the record and its
// conn pin are held for the life of the request, not for the 6 s the
// timeout would have waited.
type request struct {
	g    *Generator
	now  time.Duration // offer time
	id   uint64
	doc  trace.DocID
	done bool
	refs int

	conn cnet.Conn
	dl   [2]deadline // the connect deadline and the complete timeout

	h cnet.StreamHandlers // once-built handler closures, recreated with the record

	slot int // registry index, reassigned as restore re-registers in-flight requests
}

func (g *Generator) newRequest() *request {
	r := g.reqFree.Get()
	if r.g != nil {
		return r // recycled: handlers already built
	}
	r.g = g
	r.h = cnet.StreamHandlers{OnMessage: r.onMessage, OnClose: r.onClose}
	return r
}

func (r *request) unref() {
	r.refs--
	if r.refs == 0 {
		g := r.g
		last := len(g.reqLive) - 1
		moved := g.reqLive[last]
		g.reqLive[r.slot] = moved
		moved.slot = r.slot
		g.reqLive[last] = nil
		g.reqLive = g.reqLive[:last]
		if r.conn != nil {
			cnet.ReleaseConn(r.conn) // pin taken when DialResult stored it
			r.conn = nil
		}
		g.reqFree.Put(r)
	}
}

func (r *request) fail(connectPhase bool) {
	if r.done {
		return
	}
	r.done = true
	g := r.g
	g.rec.Failed++
	g.rec.Failures.Add(r.now, 1)
	if connectPhase {
		g.rec.ConnectFailures++
	} else {
		g.rec.CompleteFailures++
	}
	if r.conn != nil {
		r.conn.Close()
	}
	r.settle()
}

// settle runs when the request's outcome is decided: the complete timeout
// has nothing left to report, so it is cancelled and its ref given back —
// typically the last one, which recycles the record, unpins the conn and
// lets the pair go back to the network's pool now instead of 6 s later.
func (r *request) settle() {
	if r.g.unlist(completeDL, r) {
		r.g.completeCancelled++
		r.unref()
	}
}

// A request's two deadlines are the paper's: the connect deadline runs
// from the offer, the complete timeout from the connection. All deadlines
// of one kind have the same span, so they fall due in the order they were
// armed, and each kind is a FIFO list through the request records. A
// deadline takes the kernel key an event scheduled for it would have
// (sim.Reserve) without scheduling one; a stop is an unlink. The list
// keeps one kernel event, its wake, armed at a key no later than its
// head's: a wake that finds its head due fires that deadline at the
// deadline's own key, exactly where the per-request event fired, and one
// armed for a deadline since stopped moves on to the new head and takes
// back its count, so EventsFired is the per-request schedule's. The wake
// of a list that empties stays armed: with one request in flight, the
// next deadline is armed behind it for free.
const (
	connectDL = iota
	completeDL
)

// deadline is one of a request's deadlines: its key, and its links in the
// kind's list while listed.
type deadline struct {
	at         time.Duration
	seq        uint64
	next, prev *request
	listed     bool
}

// deadlineList is the pending deadlines of one kind, oldest first.
type deadlineList struct{ head, tail *request }

// connectWake and completeWake are the deadline lists' kernel callbacks.
func connectWake(arg any)  { arg.(*Generator).wake(connectDL) }
func completeWake(arg any) { arg.(*Generator).wake(completeDL) }

// wakeFn returns list k's kernel callback.
func wakeFn(k int) func(any) {
	if k == connectDL {
		return connectWake
	}
	return completeWake
}

// list arms r's deadline of kind k, span from now, at the key an event
// scheduled now would take.
func (g *Generator) list(k int, r *request, span time.Duration) {
	d := &r.dl[k]
	d.at, d.seq = g.sim.Now()+span, g.sim.Reserve()
	g.link(k, r)
	if !g.woken[k] {
		g.arm(k, r)
	}
}

// link appends r's deadline of kind k to its list.
func (g *Generator) link(k int, r *request) {
	l, d := &g.lists[k], &r.dl[k]
	d.prev, d.next, d.listed = l.tail, nil, true
	if l.tail != nil {
		l.tail.dl[k].next = r
	} else {
		l.head = r
	}
	l.tail = r
}

// unlist stops r's deadline of kind k, reporting whether it was pending.
// The kernel is not touched: a wake armed for it finds it gone.
func (g *Generator) unlist(k int, r *request) bool {
	l, d := &g.lists[k], &r.dl[k]
	if !d.listed {
		return false
	}
	if d.prev != nil {
		d.prev.dl[k].next = d.next
	} else {
		l.head = d.next
	}
	if d.next != nil {
		d.next.dl[k].prev = d.prev
	} else {
		l.tail = d.prev
	}
	*d = deadline{}
	return true
}

// arm schedules list k's wake at r's deadline.
func (g *Generator) arm(k int, r *request) {
	g.woken[k] = true
	g.sim.RestoreAtArg(r.dl[k].at, r.dl[k].seq, wakeFn(k), g)
}

// wake runs list k's kernel event. Its key is no later than the head's,
// so the head is due exactly when its key has passed.
func (g *Generator) wake(k int) {
	g.woken[k] = false
	l := &g.lists[k]
	r := l.head
	if r == nil || !g.sim.Passed(r.dl[k].at, r.dl[k].seq) {
		g.sim.AdjustFired(-1) // armed for a deadline since stopped
		if r != nil {
			g.arm(k, r)
		}
		return
	}
	g.unlist(k, r)
	if l.head != nil {
		g.arm(k, l.head)
	}
	r.fail(k == connectDL)
	r.unref()
}

func (r *request) onMessage(c cnet.Conn, m cnet.Message) {
	resp, ok := m.(*server.RespMsg)
	if !ok {
		return
	}
	respOK := resp.OK
	resp.Release() // final consumer: recycle into the server's pool
	if r.done {
		return
	}
	r.done = true
	g := r.g
	if respOK {
		g.rec.Succeeded++
		g.rec.Throughput.Add(g.sim.Now(), 1)
		g.rec.latencySum += g.sim.Now() - r.now
	} else {
		g.rec.Failed++
		g.rec.Failures.Add(r.now, 1)
		g.rec.CompleteFailures++
	}
	c.Close()
	r.settle()
}

func (r *request) onClose(c cnet.Conn, err error) { r.fail(false) }

// DialHandlers implements cnet.DialOwner: the request is its dial's
// owner record.
func (r *request) DialHandlers() cnet.StreamHandlers { return r.h }

// DialResult implements cnet.DialOwner.
func (r *request) DialResult(c cnet.Conn, err error) {
	if r.done {
		if c != nil {
			c.Close()
		}
		r.unref()
		return
	}
	if r.g.unlist(connectDL, r) {
		r.unref()
	}
	if err != nil {
		r.fail(true)
		r.unref()
		return
	}
	r.conn = c
	cnet.RetainConn(c) // the record holds the conn until it recycles
	req := server.NewReqMsg(&r.g.reqPool)
	req.ID, req.Doc = r.id, r.doc
	c.TrySend(req, 256)
	r.refs++
	r.g.list(completeDL, r, completeTimeout)
	r.unref()
}

// launch issues one request with the paper's timeout discipline.
func (g *Generator) launch() {
	now := g.sim.Now()
	g.rec.Offered++
	g.rec.Offers.Add(now, 1)
	g.next++
	target := g.cfg.Targets[g.rr%len(g.cfg.Targets)]
	g.rr++

	r := g.newRequest()
	r.now = now
	r.id = g.next
	r.doc = g.cfg.Catalog.Sample(g.rng)
	r.done = false
	r.refs = 2 // connect deadline + dial result
	r.slot = len(g.reqLive)
	g.reqLive = append(g.reqLive, r)

	g.list(connectDL, r, connectTimeout)
	g.iface.DialFor(target, cnet.ClassClient, server.PortHTTP, r)
}
