package cnet

import (
	"time"

	"press/internal/clock"
	"press/internal/snapio"
)

// Snapshot support shared by the protocol components. A component's walk
// moves its own fields; what it holds of the runtime — timer handles,
// tickers, connections — it moves through the helpers here, which talk to
// the hosting runtime structurally, so that no component imports the
// simulator's machine package. A timer or a dial needs no helper to
// travel: its owner record defines itself in the walk that lists it
// (TimerOwner, DialOwner), and the runtime's record names it.

// RestoreEnv is the process environment a component is rebuilt on inside
// a snapshot restore: the normal Env plus the runtime's restore
// registrations (implemented by machine.Env). A component's restore is its
// constructor minus everything that would schedule an event, its walk,
// and RestoreConn for every connection in RestoreConnList.
type RestoreEnv interface {
	Env
	// SnapTicker moves a ticker of this runtime's clock: its stopped flag
	// and its pending fire. Loading builds it on this environment, calling
	// fn every period, and takes the fire back.
	SnapTicker(x *snapio.Ctx, t *clock.Ticker, period time.Duration, fn func(), what string)
	// RestoreConn re-attaches the component's handlers to a connection.
	RestoreConn(c Conn, h StreamHandlers)
	// RestoreConnList lists every connection the process carried across
	// the snapshot: adopted ones, then those only a mailbox entry names.
	RestoreConnList() []Conn
}

// SnapTimer moves a one-shot timer handle a component keeps to stop: a
// reference to the runtime's timer record, which the runtime's own section
// defined while the timer was pending or its fire queued, or 0 when the
// handle is nil or spent. Either loads as nil, on which the component
// calls nothing, as Stop on a spent handle did nothing.
func SnapTimer(x *snapio.Ctx, h *clock.Timer, what string) {
	if x.Saving() {
		var id uint64
		if *h != nil {
			id, _ = x.Owners.Lookup(*h)
		}
		x.Enc.U64(id)
		return
	}
	*h = nil
	if ref := x.Owners.Obj(x.Dec.U64()); ref != nil {
		t, ok := ref.(clock.Timer)
		if !ok {
			snapio.Failf("%s: %T is not a timer", what, ref)
		}
		*h = t
	}
}

// SnapTicker moves a periodic ticker env's clock made (RestoreEnv.SnapTicker).
func SnapTicker(x *snapio.Ctx, env Env, t *clock.Ticker, period time.Duration, fn func(), what string) {
	env.(RestoreEnv).SnapTicker(x, t, period, fn, what)
}

// RestoreConns re-attaches handlers to every connection env carried across
// the snapshot: held[c] for one a record of the component holds, inert
// ones for the rest — connections only a stale mailbox entry still names,
// closed by a record that has since been recycled or unlisted, whose
// handlers would have looked at the record's state and done nothing.
func RestoreConns(env RestoreEnv, held map[Conn]StreamHandlers) {
	for _, c := range env.RestoreConnList() {
		h, ok := held[c]
		if !ok {
			h = StreamHandlers{OnMessage: func(Conn, Message) {}, OnClose: func(Conn, error) {}}
		}
		env.RestoreConn(c, h)
	}
}
