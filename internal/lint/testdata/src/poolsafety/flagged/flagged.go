// Package flagged exercises every poolsafety violation class: use after
// Release, double Release, a branch-dependent Release followed by use, a
// record leaking to the function exit, and each escape-into-retained-
// structure shape (struct field, map element, append, channel send,
// closure capture, retained composite literal).
package flagged

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

func useAfterRelease(p *cnet.MsgPool[Rec]) {
	r := NewRec(p)
	r.N = 1
	r.Release()
	_ = r.N // want `used after Release`
}

func doubleRelease(p *cnet.MsgPool[Rec]) {
	r := NewRec(p)
	r.Release()
	r.Release() // want `Released twice`
}

func leaks(p *cnet.MsgPool[Rec], cond bool) {
	r := NewRec(p) // want `can reach the exit`
	if cond {
		r.Release()
		return
	}
	// The fall-through path exits without releasing r.
}

func leaksDirectDraw(p *cnet.MsgPool[Rec], cond bool) {
	r := p.Get() // want `can reach the exit`
	if cond {
		r.Release()
	}
}

func branchyUse(p *cnet.MsgPool[Rec], cond bool) {
	r := NewRec(p)
	if cond {
		r.Release()
	}
	_ = r.N     // want `may have been Released`
	r.Release() // want `may already be Released`
}

type holder struct{ r *Rec }

type entry struct{ m *Rec }

func escapes(p *cnet.MsgPool[Rec], h *holder, m map[int]*Rec, s []*Rec, ch chan *Rec) []*Rec {
	a := NewRec(p)
	h.r = a // want `escapes into a struct field`
	b := NewRec(p)
	m[0] = b // want `escapes into a map or slice element`
	c := NewRec(p)
	s = append(s, c) // want `escapes into an appended slice`
	d := NewRec(p)
	ch <- d // want `escapes into a channel send`
	e := NewRec(p)
	f := func() { e.N++ } // want `captured by a closure`
	f()
	g := NewRec(p)
	kept := entry{m: g} // want `escapes into a composite literal`
	_ = kept
	return s
}
