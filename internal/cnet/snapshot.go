package cnet

import (
	"time"

	"press/internal/clock"
	"press/internal/snapio"
)

// Snapshot support shared by the protocol components. A component's walk
// moves its own fields; what it holds of the runtime — timers, tickers,
// connections — it moves through the helpers here, which talk to the
// hosting runtime structurally, so that no component imports the
// simulator's machine package. A dial needs no helper: its owner record
// defines itself in the walk that lists it (DialOwner).

// RestoreEnv is the process environment a component is rebuilt on inside
// a snapshot restore: the normal Env plus the runtime's restore
// registrations (implemented by machine.Env). A component's restore is its
// constructor minus everything that would schedule an event, its walk,
// and RestoreConn for every connection in RestoreConnList.
type RestoreEnv interface {
	Env
	// RestoreTimer re-claims the pending timer the saved incarnation armed
	// under serial, with the callback the stream cannot carry; live is
	// false when that timer was spent and fn will never be called.
	RestoreTimer(serial uint64, fn func()) (t clock.Timer, live bool)
	// SnapTicker moves a ticker of this runtime's clock: its stopped flag
	// and its pending fire. Loading builds it on this environment, calling
	// fn every period, and re-claims the fire.
	SnapTicker(x *snapio.Ctx, t *clock.Ticker, period time.Duration, fn func(), what string)
	// RestoreConn re-attaches the component's handlers to a connection.
	RestoreConn(c Conn, h StreamHandlers)
	// RestoreConnList lists every connection the process carried across
	// the snapshot: adopted ones, then those only a mailbox entry names.
	RestoreConnList() []Conn
}

// SnapTimer moves a retained one-shot timer handle: whether there is one,
// then the serial its runtime gave it. Loading re-claims it from env with
// fn (a pending timer re-arms at its exact kernel slot; a spent or
// stopped one yields an inert handle).
func SnapTimer(x *snapio.Ctx, env Env, h *clock.Timer, fn func(), what string) {
	has := *h != nil
	if x.Bool(&has); !has {
		*h = nil
		return
	}
	var serial uint64
	if x.Saving() {
		ts, ok := (*h).(interface{ TimerSerial() uint64 })
		if !ok {
			snapio.Failf("%s handle %T carries no timer serial", what, *h)
		}
		serial = ts.TimerSerial()
	}
	if x.U64(&serial); !x.Saving() {
		*h, _ = env.(RestoreEnv).RestoreTimer(serial, fn)
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
