// Package wiring is the snapfields true negative for fields exempt by
// type: nothing here is annotated and nothing but n is in the walk, yet
// the package is clean, because no other field's type can hold snapshot
// state — code, a record free list, or a backlink to the kernel or the
// event log, all of which the restored world wires again.
package wiring

import (
	"press/internal/cnet"
	"press/internal/metrics"
	"press/internal/sim"
	"press/internal/snapio"
)

type hooks struct {
	h      cnet.StreamHandlers
	closed func(cnet.Conn)
}

type Endpoint struct {
	n int

	sim  *sim.Sim
	log  *metrics.Log
	free cnet.MsgPool[Endpoint]

	fn      func()
	h       cnet.StreamHandlers
	hooks   hooks
	router  *hooks // shared by every endpoint of one owner
	dgram   map[string]func(from cnet.NodeID, m cnet.Message)
	accepts map[string]hooks
	subs    []func(members []cnet.NodeID)
	binds   []binding // a map[string]hooks written flat
}

type binding struct {
	port string
	h    hooks
}

func (e *Endpoint) SnapState(x *snapio.Ctx) { snapio.Int(x, &e.n) }
