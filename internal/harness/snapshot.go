package harness

import (
	"slices"
	"sync"

	"press/internal/frontend"
	"press/internal/machine"
	"press/internal/membership"
	"press/internal/server"
	"press/internal/simnet"
	"press/internal/snapio"
)

// World serialization: the harness owns the section order because it is
// the only layer that sees every subsystem. SnapWorld is the one walk over
// everything inside one built world, the same linear byte stream in both
// directions; internal/snapshot puts a self-describing envelope (magic,
// format version, options, offered rate) in front of it for blobs that
// leave the process, and a campaign forks its episodes from the bare
// stream (campaign.go):
//
//	metrics log → network core → machines → the processes' parts →
//	workload → fault injector → disks (→ what only FME leaves pending) →
//	caller extra → network pending events → connection tables → kernel
//	counters.
//
// The network core comes first because it registers every interface's
// connection halves in ctx.Conns in deterministic order; the machines
// (servers, front-end tier, standby) come before any process's part
// because a part re-claims what its machine section listed — timers by
// serial, dials by tag, connections; the parts run in build order, node
// by node: the membership segment and daemon, the echo responder, the
// press process (its membership client, then the server or its husk),
// the FME daemon, and after the servers the front-ends and the standby;
// the pending and connection tables come last because by then every
// owner (dial records, disk operations, probe rounds, requests) is
// defined in ctx.Owners; the kernel counters come very last so
// SetCounters overwrites whatever bookkeeping the re-arming of events
// touched. A trait the world lacks writes no bytes: a COOP stream is what
// it was before the walks reached the rest.

// Server section tags: what a node's press part says first.
const (
	srvNone = iota // holder is nil (never booted)
	srvLive        // press alive: full state
	srvHusk        // press dead: stats, view, queue lengths
)

// machines lists every machine of the world in walk order: servers, the
// front-end tier, the standby front-end.
func (c *Cluster) machines() []*machine.Machine {
	ms := append(c.Machines[:len(c.Machines):len(c.Machines)], c.FEMachines...)
	if c.FEBackup != nil {
		ms = append(ms, c.FEBackup)
	}
	return ms
}

// worldMsgs describes every message that can sit in a buffer, a mailbox
// or an in-flight packet of a world. A codec is only read once its
// messages are registered, so every walk, concurrent ones included,
// shares this one.
var worldMsgs = sync.OnceValue(func() *snapio.MsgCodec {
	msgs := snapio.NewMsgCodec()
	server.RegisterMessages(msgs)
	frontend.RegisterMessages(msgs)
	membership.RegisterMessages(msgs)
	return msgs
})

// newCtx builds the context one world's walks share: connection
// references resolve through blank simnet halves (the connection table is
// one of the last sections).
func newCtx() *snapio.Ctx {
	return &snapio.Ctx{World: &snapio.World{
		Conns:  snapio.NewRefTable(simnet.BlankConn),
		Owners: snapio.NewRefTable(nil),
		Msgs:   worldMsgs(),
	}}
}

// SnapWorld appends the cluster's complete dynamic state to enc. extra,
// when non-nil, runs between the subsystem sections and the network
// tables — the slot where a driver (the chaos runner) moves its own
// pending timers, which a save must still be able to claim from the
// pending table. A structural problem is a snapio.Failf panic, which the
// caller's boundary turns into an error.
func (c *Cluster) SnapWorld(enc *snapio.Encoder, extra func(*snapio.Ctx)) {
	x := newCtx()
	x.Enc = enc
	c.snapWorld(x, extra)
}

// snapWorld is the walk itself; loading, into the cold world
// BuildForRestore made.
func (c *Cluster) snapWorld(x *snapio.Ctx, extra func(*snapio.Ctx)) {
	x.Sim = c.Sim
	if x.Saving() {
		x.CapturePending()
	} else if n := c.Sim.Pending(); n != 0 {
		snapio.Failf("harness: cold world booted %d stray kernel events", n)
	}

	c.Log.SnapState(x)
	c.Net.SnapCore(x)
	for _, m := range c.machines() {
		m.SnapState(x)
	}
	for _, part := range c.parts {
		part(x)
	}
	if !x.Saving() {
		for _, m := range c.machines() {
			m.FinishRestore()
		}
	}
	c.Gen.SnapState(x)
	c.Injector.SnapState(x)
	for _, m := range c.Machines {
		m.Disks().SnapState(x)
	}
	if c.Traits.fme {
		// What only FME leaves pending: disk health checks, and the
		// application restarts its daemons ordered.
		for _, m := range c.Machines {
			m.Disks().SnapProbes(x)
		}
		snapio.Pending(x, startPress, 1<<16, nil, func(m *machine.Machine) *machine.Machine {
			node := slices.Index(c.Machines, m)
			if snapio.Int(x, &node); node < 0 || node >= len(c.Machines) {
				snapio.Failf("harness: application restart pending for node %d of %d", node, len(c.Machines))
			}
			return c.Machines[node]
		})
	}
	if extra != nil {
		extra(x)
	}
	c.Net.SnapPending(x)
	c.Net.SnapConns(x)

	if un := x.Unclaimed(); len(un) > 0 {
		ev := un[0]
		name := snapio.FnName(ev.AFn)
		if ev.AFn == nil {
			name = snapio.FnName(ev.Fn)
		}
		snapio.Failf("harness: %d unclaimed pending events after save; first %s at %v seq %d",
			len(un), name, ev.At, ev.Seq)
	}

	now, seq, fired, maxQ := c.Sim.Counters()
	snapio.Int(x, &now)
	x.U64(&seq)
	x.U64(&fired)
	snapio.Int(x, &maxQ)
	if !x.Saving() {
		c.Sim.SetCounters(now, seq, fired, maxQ)
	}
}

// RestoreWorld builds a cold world and runs the rest of dec, a stream
// SnapWorld wrote, into it; extra gets the half-restored cluster at
// SnapWorld's extra slot. The returned cluster continues byte-identically
// to the one that was saved. Any number of calls may read one stream at
// the same time: each builds its own world and its own tables.
func RestoreWorld(v Version, o Options, rate float64, dec *snapio.Decoder, extra func(*Cluster, *snapio.Ctx)) *Cluster {
	c := BuildForRestore(v, o, rate)
	x := newCtx()
	x.Dec = dec
	var hook func(*snapio.Ctx)
	if extra != nil {
		hook = func(x *snapio.Ctx) { extra(c, x) }
	}
	c.snapWorld(x, hook)
	if err := dec.Err(); err != nil {
		panic(err) // a *snapio.SnapError, like every other refusal
	}
	if !dec.Done() {
		snapio.Failf("trailing bytes after world stream")
	}
	return c
}
