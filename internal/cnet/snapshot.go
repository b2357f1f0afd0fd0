package cnet

import (
	"time"

	"press/internal/clock"
	"press/internal/snapio"
)

// Snapshot support shared by the protocol components. A component's walk
// moves its own fields; what it holds of the runtime — timers, tickers,
// connections, dials in flight — it moves through the helpers here, which
// talk to the hosting runtime structurally, so that no component imports
// the simulator's machine package.

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
	// RestoreTicker rebuilds an unarmed ticker.
	RestoreTicker(period time.Duration, fn func(), stopped bool) clock.Ticker
	// RestoreDialer supplies the endpoint callbacks of the untagged dials
	// to (to, port) whose result the saved incarnation had not seen yet;
	// RestoreTaggedDialer those of the dials issued under tag (DialTagger).
	RestoreDialer(to NodeID, port string, h StreamHandlers, result func(Conn, error))
	RestoreTaggedDialer(tag uint32, h StreamHandlers, result func(Conn, error))
	// RestoreConn re-attaches the component's handlers to a connection.
	RestoreConn(c Conn, h StreamHandlers)
	// RestoreConnList lists every connection the process carried across
	// the snapshot: adopted ones, then those only a mailbox entry names.
	RestoreConnList() []Conn
}

// DialTagger is the optional surface of an Env whose runtime can snapshot
// dials in flight. A component that may have several dials to one (node,
// port) outstanding at once, with different callbacks, calls TagNextDial
// with a nonzero tag, unique within the process among dials with
// different callbacks, right before each Dial, and hands the same tag to
// RestoreTaggedDialer.
type DialTagger interface {
	TagNextDial(tag uint32)
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

// SnapTicker moves a periodic ticker as its stopped flag and its pending
// fire; a load rebuilds it unarmed on env, calling fn every period, and
// hands it the re-claimed fire.
func SnapTicker(x *snapio.Ctx, env Env, t *clock.Ticker, period time.Duration, fn func(), what string) {
	var stopped bool
	var pending clock.Timer
	if x.Saving() {
		st, ok := (*t).(interface {
			Stopped() bool
			PendingTimer() clock.Timer
		})
		if !ok {
			snapio.Failf("%s ticker %T is not restorable", what, *t)
		}
		stopped, pending = st.Stopped(), st.PendingTimer()
	}
	x.Bool(&stopped)
	var fire func()
	var adopt func(clock.Timer)
	if !x.Saving() {
		*t = env.(RestoreEnv).RestoreTicker(period, fn, stopped)
		rt, ok := (*t).(interface {
			FireFunc() func()
			AdoptTimer(clock.Timer)
		})
		if !ok {
			snapio.Failf("restored %s ticker %T lacks a timer-adoption surface", what, *t)
		}
		fire, adopt = rt.FireFunc(), rt.AdoptTimer
	}
	if SnapTimer(x, env, &pending, fire, what); !x.Saving() && pending != nil {
		adopt(pending)
	}
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
