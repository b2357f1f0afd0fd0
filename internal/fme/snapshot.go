package fme

import (
	"press/internal/cnet"
	"press/internal/snapio"
)

// Snapshot support. The daemon moves its counters, its probe ticker and
// the probe rounds something can still call back. A round is an owner: the
// machine's owner walk and the disk subsystem's section, which run later,
// name it as the receiver of its timeout (round.OnTimer), of its dial's
// result (round.DialResult) and of the health check's verdict
// (round.DiskProbe).

// OwnerGone tells the disk subsystem's walk that this round's daemon has
// died with its machine (snapio.Ctx.Owner). The verdict of a health check
// still in flight then decides nothing: the application probe's verdict,
// which comes through the mailbox, never arrives to meet it.
func (r *round) OwnerGone() bool {
	env, ok := r.d.env.(interface{ Live() bool })
	return ok && !env.Live()
}

// SnapState moves the daemon; loading, into the one Restore built.
func (d *Daemon) SnapState(x *snapio.Ctx) {
	snapio.Int(x, &d.appStrikes)
	x.U64(&d.probeSeq)
	x.U64(&d.actions)
	cnet.SnapTicker(x, d.env, &d.probeT, d.cfg.ProbePeriod, d.tick, "fme: probe")

	for i := range x.Len(len(d.rounds), 1<<16) {
		var r *round
		if x.Saving() {
			r = d.rounds[i]
		} else {
			r = d.newRound()
		}
		x.Define(r)
		x.Bool(&r.haveDisk)
		x.Bool(&r.diskHealthy)
		x.Bool(&r.haveApp)
		snapio.Int(x, &r.app)
		snapio.OptConn(x, &r.conn)
		x.Bool(&r.closed)
		x.Bool(&r.dialing)
		x.Bool(&r.expired)
	}
}

// Restore rebuilds a daemon inside a snapshot restore: state loaded
// through SnapState, and handlers re-attached to every connection the
// process carried across.
func Restore(cfg Config, env cnet.RestoreEnv, disk Disk, ctl Control, x *snapio.Ctx) *Daemon {
	d := newDaemon(cfg, env, disk, ctl)
	d.SnapState(x)
	handlers := make(map[cnet.Conn]cnet.StreamHandlers, len(d.rounds))
	for _, r := range d.rounds {
		if r.conn != nil {
			handlers[r.conn] = r.h
		}
	}
	cnet.RestoreConns(env, handlers)
	return d
}
