// Package clean is the poolsafety false-positive guard: every sanctioned
// ownership pattern in the real tree, none of which may be flagged —
// release on every path, deferred release, collect-then-clone before
// retaining, the enqueue hand-off (record wrapped in a literal passed
// straight to a call), plain ownership transfer to a callee, the
// final-consumer parameter discipline, pool drains in loops, and the
// type-switch dispatch shape from the server's peer handler.
package clean

import "press/internal/cnet"

type Rec struct {
	home *cnet.MsgPool[Rec]
	N    int
	S    string
}

func NewRec(p *cnet.MsgPool[Rec]) *Rec {
	m := p.Get()
	m.home = p
	return m
}

func (m *Rec) Release() {
	home := m.home
	*m = Rec{}
	home.Put(m)
}

// Payload is the pool-less clone target: retaining a value copy of the
// record's data is the sanctioned alternative to retaining the record.
type Payload struct {
	N int
	S string
}

type entry struct{ m *Rec }

type queue struct{ q []entry }

func (q *queue) enqueue(e entry) { q.q = append(q.q, e) }

func releasesEverywhere(p *cnet.MsgPool[Rec], cond bool) {
	r := NewRec(p)
	if cond {
		r.N = 1
		r.Release()
		return
	}
	r.Release()
}

func deferRelease(p *cnet.MsgPool[Rec]) int {
	r := NewRec(p)
	defer r.Release()
	r.N = 2
	return r.N
}

func collectThenClone(p *cnet.MsgPool[Rec], sink []Payload) []Payload {
	r := NewRec(p)
	clone := Payload{N: r.N, S: r.S}
	sink = append(sink, clone)
	r.Release()
	return sink
}

func handOffEnqueue(p *cnet.MsgPool[Rec], q *queue) {
	r := NewRec(p)
	r.N = 7
	q.enqueue(entry{m: r})
}

func transferToCallee(p *cnet.MsgPool[Rec]) {
	r := NewRec(p)
	consume(r)
}

func consume(r *Rec) { r.Release() }

func paramDiscipline(r *Rec) {
	r.N++
	r.Release()
}

func returnsOwnership(p *cnet.MsgPool[Rec]) *Rec {
	r := NewRec(p)
	r.N = 3
	return r
}

func loopDrain(p *cnet.MsgPool[Rec], n int) {
	for i := 0; i < n; i++ {
		r := NewRec(p)
		r.N = i
		r.Release()
	}
}

func typeSwitchDispatch(msgs []any) {
	for _, m := range msgs {
		switch v := m.(type) {
		case *Rec:
			v.N++
			v.Release()
		default:
			_ = v
		}
	}
}

// opRec is the simulator's internal free-list shape: no Release method,
// put back by the function that dispatches it, and a once-built closure
// over the record itself. A MsgPool used as a plain free list is outside
// the ownership discipline.
type opRec struct {
	n  int
	fn func()
}

type opPools struct{ free cnet.MsgPool[opRec] }

func (o *opPools) getOp() *opRec {
	r := o.free.Get()
	if r.fn != nil {
		return r
	}
	r.fn = func() {
		r.n++
		o.free.Put(r)
	}
	return r
}

func (o *opPools) earlyOut(cond bool) {
	r := o.free.Get()
	if cond {
		return // dropped for the collector, like a full pool does
	}
	r.n = 1
	o.free.Put(r)
}
