// Package fme implements Fault Model Enforcement (§4.5): a per-node
// daemon that transforms faults outside the service's abstract fault
// model (disk timeouts, application hangs) into faults inside it (node
// crash, application crash-restart), so that the membership service and
// queue monitoring — whose views otherwise diverge — converge on a single
// consistent picture.
//
// The daemon periodically (i) probes the local disks through the SCSI
// generic interface and (ii) probes the local application server with
// simple HTTP requests. The paper's translation rules:
//
//   - disk faulty AND application unresponsive → take the whole node
//     offline for repair (the disk fault has wedged the server; a node
//     crash is something every subsystem understands);
//   - application unresponsive AND disk healthy → restart the application
//     process, converting a hang into a crash-restart sequence.
//
// A probe that is *refused* (nothing listening) means the application
// already crashed; that is inside the fault model and is left to the
// ordinary restart path, so the daemon takes no action for it.
package fme

import (
	"errors"
	"fmt"
	"time"

	"press/internal/clock"
	"press/internal/cnet"
	"press/internal/metrics"
	"press/internal/server"
)

// Control is the node-control surface the daemon acts through. The
// simulator backs it with machine.Machine; livenet with process handles.
type Control interface {
	// TakeOffline removes the whole node from service until repair.
	TakeOffline(reason string)
	// RestartApp kills and restarts the application process.
	RestartApp()
}

// Disk is the probe surface of the local disk subsystem.
type Disk interface {
	// Probe health-checks the disks, bypassing the request queue;
	// owner.DiskProbe hears the verdict.
	Probe(timeout time.Duration, owner interface{ DiskProbe(healthy bool) })
}

// Config parameterizes the daemon.
type Config struct {
	Self cnet.NodeID
	// ProbePeriod is the paper's 5 s test cadence.
	ProbePeriod time.Duration
}

// probeTimeout bounds the HTTP probe (and the SCSI probe).
const probeTimeout = 2 * time.Second

// consecutive is how many consecutive unresponsive probes establish "the
// application fails to respond" (hysteresis against transient overload).
const consecutive = 2

func (c Config) withDefaults() Config {
	if c.ProbePeriod <= 0 {
		c.ProbePeriod = 5 * time.Second
	}
	return c
}

// Daemon is one node's FME process.
type Daemon struct {
	cfg  Config
	src  metrics.SourceID // interned "fme/<self>" tag
	env  cnet.Env
	disk Disk
	ctl  Control

	appStrikes int // consecutive unresponsive HTTP probes
	probeSeq   uint64
	actions    uint64

	// probeT drives the probe loop. Each tick suppresses the automatic
	// rearm (Stop) and the round's decide() revives the ticker once both
	// probe verdicts are in, so the next tick is a full ProbePeriod after
	// the decision, not after the probes were sent.
	probeT clock.Ticker

	// rounds lists the probe rounds something can still call back, each at
	// the index its slot field holds, so that a snapshot can enumerate
	// them. Normally that is the current round, if any.
	rounds []*round
}

// NewDaemon starts the FME daemon.
func NewDaemon(cfg Config, env cnet.Env, disk Disk, ctl Control) *Daemon {
	d := newDaemon(cfg, env, disk, ctl)
	d.probeT = d.env.Clock().Every(d.cfg.ProbePeriod, d.tick)
	return d
}

// newDaemon builds the daemon without arming it — shared by NewDaemon and
// the snapshot Restore path.
func newDaemon(cfg Config, env cnet.Env, disk Disk, ctl Control) *Daemon {
	d := &Daemon{cfg: cfg.withDefaults(), env: env, disk: disk, ctl: ctl}
	d.src = metrics.InternSource(fmt.Sprintf("fme/%d", d.cfg.Self))
	return d
}

// Actions returns how many fault translations the daemon performed.
func (d *Daemon) Actions() uint64 { return d.actions }

func (d *Daemon) emit(detail string) {
	d.env.Events().EmitID(d.env.Clock().Now(), d.src, metrics.KFMEAction, int(d.cfg.Self), detail)
}

// appProbeResult classifies one HTTP probe.
type appProbeResult int

const (
	appResponsive   appProbeResult = iota
	appUnresponsive                // connected (or timed out connecting) but no answer: hang
	appDead                        // connection refused: crash, outside our jurisdiction
)

// round is one tick's pair of probes: the two verdicts as they come in,
// and the HTTP probe's connection, dial and timeout. It stays listed in
// Daemon.rounds until nothing can call it back: the disk verdict is in,
// the timeout has fired, the dial result has arrived and the connection,
// if one was made, is closed. The round owns its dial (cnet.DialOwner), its
// timeout (cnet.TimerOwner) and its health check.
type round struct {
	d    *Daemon
	slot int

	haveDisk, diskHealthy bool
	haveApp               bool
	app                   appProbeResult

	conn    cnet.Conn
	closed  bool // conn was closed, by either end
	dialing bool // the dial result is still owed
	expired bool // the timeout has fired

	h cnet.StreamHandlers
}

func (d *Daemon) newRound() *round {
	r := &round{d: d, slot: len(d.rounds)}
	r.h = cnet.StreamHandlers{OnMessage: r.onMessage, OnClose: r.onClose}
	d.rounds = append(d.rounds, r)
	return r
}

func (d *Daemon) tick() {
	// Suppress the automatic rearm up front: decide() revives the ticker,
	// and doing it first keeps a synchronous probe completion safe.
	d.probeT.Stop()
	r := d.newRound()
	d.disk.Probe(probeTimeout, r)
	r.probeApp()
}

// DiskProbe takes the disk subsystem's verdict.
func (r *round) DiskProbe(healthy bool) {
	r.haveDisk, r.diskHealthy = true, healthy
	r.decide()
	r.retire()
}

// appVerdict takes the HTTP probe's first verdict; later ones are stale.
func (r *round) appVerdict(res appProbeResult) {
	if r.haveApp {
		return
	}
	r.haveApp, r.app = true, res
	r.decide()
}

func (r *round) decide() {
	if !r.haveDisk || !r.haveApp {
		return
	}
	r.d.decide(r.diskHealthy, r.app)
	r.d.probeT.Reschedule(r.d.cfg.ProbePeriod)
}

// probeApp sends one HTTP probe to the local server.
func (r *round) probeApp() {
	d := r.d
	d.probeSeq++
	d.env.AfterFor(probeTimeout, r)
	r.dialing = true
	d.env.DialFor(d.env.Local(), cnet.ClassClient, server.PortHTTP, r)
}

// OnTimer implements cnet.TimerOwner: the probe's timeout.
func (r *round) OnTimer() {
	if r.conn != nil {
		r.conn.Close()
		cnet.ReleaseConn(r.conn) // pin taken when the dial stored it
		r.closed = true
	}
	r.appVerdict(appUnresponsive)
	r.expired = true
	r.retire()
}

func (r *round) onMessage(c cnet.Conn, m cnet.Message) {
	if resp, ok := m.(*server.RespMsg); ok && resp.Probe {
		resp.Release()
		c.Close()
		r.closed = true
		r.appVerdict(appResponsive)
		r.retire()
	}
}

func (r *round) onClose(c cnet.Conn, err error) {
	r.closed = true
	if errors.Is(err, cnet.ErrReset) {
		r.appVerdict(appDead)
	}
	r.retire()
}

// DialHandlers implements cnet.DialOwner.
func (r *round) DialHandlers() cnet.StreamHandlers { return r.h }

// DialResult implements cnet.DialOwner.
func (r *round) DialResult(c cnet.Conn, err error) {
	r.dialing = false
	defer r.retire()
	if err != nil {
		if errors.Is(err, cnet.ErrRefused) {
			r.appVerdict(appDead)
			return
		}
		r.appVerdict(appUnresponsive)
		return
	}
	r.conn = c
	cnet.RetainConn(c) // held across events until the timeout fires
	c.TrySend(&server.ReqMsg{ID: r.d.probeSeq, Probe: true}, 64)
}

// retire unlists a round nothing can call back any more.
func (r *round) retire() {
	if !r.haveDisk || !r.expired || r.dialing || r.conn != nil && !r.closed {
		return
	}
	rs := r.d.rounds
	if r.slot >= len(rs) || rs[r.slot] != r {
		return // already unlisted
	}
	last := rs[len(rs)-1]
	rs[r.slot], last.slot = last, r.slot
	rs[len(rs)-1] = nil
	r.d.rounds = rs[:len(rs)-1]
}

// decide applies the translation rules.
func (d *Daemon) decide(diskHealthy bool, app appProbeResult) {
	if app == appUnresponsive {
		d.appStrikes++
	} else {
		d.appStrikes = 0
	}
	switch {
	case !diskHealthy && d.appStrikes >= consecutive:
		// Rule 1: disk fault wedged the application → node crash.
		d.actions++
		d.emit("disk faulty + app unresponsive: taking node offline")
		d.appStrikes = 0
		d.ctl.TakeOffline("fme: disk failure")
	case diskHealthy && d.appStrikes >= consecutive:
		// Rule 2: hang with a healthy disk → crash-restart.
		d.actions++
		d.emit("app unresponsive, disk healthy: restarting application")
		d.appStrikes = 0
		d.ctl.RestartApp()
	}
}
