package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"sync"
	"time"

	"press/internal/frontend"
	"press/internal/machine"
	"press/internal/membership"
	"press/internal/metrics"
	"press/internal/server"
	"press/internal/simnet"
	"press/internal/snapio"
)

// A captured world is a Snap: a cluster checkpointed into a compact,
// hash-addressed blob that rehydrates into any number of independent
// forks. A restored world continues byte-identically: every pending kernel
// event is re-armed at its exact (time, sequence) slot, every random
// stream resumes mid-sequence, and every in-flight network, disk and
// request operation picks up where the saved world stopped — so an episode
// restored at time T produces the same event log and metrics series as the
// uninterrupted run from T onward. Every world the harness builds is
// covered: the ten measured versions and both protocol suites. A Table-1
// campaign forks its episodes from one (campaign.go), a chaos campaign its
// seeds, and the bytes can be written to disk and loaded by a later
// process.
//
// The blob is self-describing: an envelope (magic, format, version, every
// option the world was built from, resolved offered rate, capture time)
// followed by the world stream. The harness owns the stream's section
// order because it is the only layer that sees every subsystem; snapWorld
// is the one walk over everything inside one built world, the same linear
// byte stream in both directions:
//
//	metrics log → network core → machines → the processes' parts →
//	machines' owners → workload → fault injector → disks (→ what only
//	FME leaves pending) → caller extra → network pending events →
//	connection tables → kernel counters.
//
// The network core comes first because it registers every interface's
// connection halves in ctx.Conns in deterministic order; the machines
// (servers, front-end tier) come before any process's part because a part
// refers to what its machine section listed — timer records, connections;
// the parts run in build order, node by node: the membership segment and
// daemon, the echo responder, the press process (its membership client,
// then the server or its husk), the FME daemon, and after the servers the
// front-ends, each defining the records its timers and dials answer to
// (tickers, disk and admission operations, peers and redials, ack
// timeouts, relays, probes, rounds), which the machines' short owner walks
// then name; the pending and connection tables come last because by then
// every owner (dial records, disk operations, probe rounds, requests) is
// defined in ctx.Owners; the kernel counters come very last so SetCounters
// overwrites whatever bookkeeping the re-arming of events touched. A trait the world lacks writes no bytes: a COOP stream is what
// it was before the walks reached the rest.

const (
	magic = "press-snap"
	// format 2: Options carries the protocol suite, and the forward
	// message codec carries the sharded-mode relay origin.
	// format 3: the generator section carries its cancelled-timeout count.
	// format 4: Options carries the load modulation (a format-3 blob of a
	// diurnal or flash-crowd world restored as a stationary one).
	// format 5: a dial is its owner record — dial records and mailbox dial
	// results lose their destination and tag, and the records that issue
	// dials (server peers, front-end relays and probes, FME rounds) are
	// named after the parts.
	// format 6: a timer is its owner record — process timers and mailbox
	// timer entries lose their serial, retained handles travel as
	// references to the machine's timer records, and the records that own
	// timers are named after the parts with the dial owners.
	// format 7: only the events that fire are scheduled — a request's
	// deadlines travel as their keys and each deadline list's wake as its
	// slot; a process's charge as its end's reserved key, incarnation and
	// armed bit; a machine carries its unarmed-end count and the kernel
	// the bound on the keys at now that have passed.
	format = 7
)

// Snap is one captured world: the envelope its walk moves, the stream's
// bytes and content address (seal), and the warm-up head its forks share
// (warmHead).
type Snap struct {
	header

	blob []byte
	hash string

	headOnce sync.Once
	head     []float64
}

// header is what the envelope says of a captured world besides its
// format.
type header struct {
	Version Version
	Opts    Options       // normalized (withDefaults applied by Build)
	Rate    float64       // resolved offered load the world runs at
	At      time.Duration // sim time of the capture
}

// Bytes returns the serialized snapshot (envelope + world stream).
func (s *Snap) Bytes() []byte { return s.blob }

// Size returns the blob size in bytes.
func (s *Snap) Size() int { return len(s.blob) }

// Hash returns the snapshot's content address: the hex sha256 of the
// blob. Two captures hash equal iff their worlds are byte-identical.
func (s *Snap) Hash() string { return s.hash }

// seal adopts blob as the snapshot's bytes and content address.
func (s *Snap) seal(blob []byte) {
	sum := sha256.Sum256(blob)
	s.blob, s.hash = blob, hex.EncodeToString(sum[:])
}

// warmHead returns the throughput buckets before the capture instant: one
// read-only array every fork of s shares. The first finished fork that
// asks supplies it from its own series, whose buckets before At are the
// capture's; the bucket the capture instant falls in is each fork's own.
func (s *Snap) warmHead(tp *metrics.Series) []float64 {
	s.headOnce.Do(func() {
		k := min(int(s.At/tp.Width), tp.Len())
		s.head = slices.Clone(tp.Buckets()[:k])
	})
	return s.head
}

// recoverSnap converts the snapio.Failf panic protocol into an ordinary
// error at the package boundary; anything else is a bug and keeps
// unwinding.
func recoverSnap(err *error) {
	if r := recover(); r != nil {
		se, ok := r.(*snapio.SnapError)
		if !ok {
			panic(r)
		}
		*err = se
	}
}

// envelope moves the self-describing header every blob starts with:
// magic, format, then the snapshot's exported fields.
func (s *Snap) envelope(x *snapio.Ctx) {
	m, f := magic, format
	if x.Str(&m); m != magic {
		snapio.Failf("not a press snapshot (bad magic)")
	}
	if snapio.Int(x, &f); f != format {
		snapio.Failf("unsupported snapshot format %d (have %d)", f, format)
	}
	x.Str((*string)(&s.Version))
	s.Opts.snap(x)
	x.F64(&s.Rate)
	snapio.Int(x, &s.At)
}

// Take captures the cluster's complete state. extra, when non-nil, runs
// between the subsystem sections and the network tables — the slot where
// a driver (the chaos runner) moves its own pending timers, which a save
// must still be able to claim from the pending table.
func Take(c *Cluster, extra func(*snapio.Ctx)) (s *Snap, err error) {
	defer recoverSnap(&err)
	x := newCtx()
	x.Enc = &snapio.Encoder{}
	s = &Snap{header: header{Version: c.Version, Opts: c.Opts, Rate: c.Offered(), At: c.Sim.Now()}}
	s.envelope(x)
	c.snapWorld(x, extra)
	s.seal(x.Enc.Bytes())
	return s, nil
}

// Load wraps a serialized snapshot, validating and parsing only the
// envelope; the world stream is decoded by Restore.
func Load(data []byte) (s *Snap, err error) {
	defer recoverSnap(&err)
	x := &snapio.Ctx{Dec: snapio.NewDecoder(data)}
	s = new(Snap)
	s.envelope(x)
	if err := x.Dec.Err(); err != nil {
		return nil, err
	}
	s.seal(data)
	return s, nil
}

// Restore rehydrates one independent cluster from the snapshot: a cold
// world built from the envelope, then the same walk Take ran. extra
// mirrors Take's hook: it runs at the same stream position with the
// half-restored cluster in hand. Each call builds a fresh world and its
// own tables; the snapshot itself is never consumed, and any number of
// calls may read it at the same time.
func (s *Snap) Restore(extra func(*Cluster, *snapio.Ctx)) (c *Cluster, err error) {
	defer recoverSnap(&err)
	x := newCtx()
	x.Dec = snapio.NewDecoder(s.blob)
	var h Snap
	h.envelope(x)
	c = buildForRestore(h.Version, h.Opts, h.Rate)
	var hook func(*snapio.Ctx)
	if extra != nil {
		hook = func(x *snapio.Ctx) { extra(c, x) }
	}
	c.snapWorld(x, hook)
	if err := x.Dec.Err(); err != nil {
		return nil, err
	}
	if !x.Dec.Done() {
		snapio.Failf("trailing bytes after world stream")
	}
	if c.Sim.Now() != h.At {
		snapio.Failf("restored clock %v does not match capture time %v", c.Sim.Now(), h.At)
	}
	c.capture = s
	return c, nil
}

// Hold makes a finished world's records what a kept result holds: the
// throughput series read-only, sharing the warm-up head of the capture the
// world was forked from (a cold world's shares nothing), and the series
// tail and the event log cut to their exact length. Nothing simulates on
// c after it.
func (c *Cluster) Hold() {
	var head []float64
	if c.capture != nil {
		head = c.capture.warmHead(c.Rec.Throughput)
	}
	c.Rec.Throughput.Hold(head)
	c.Log.Trim()
}

// Server section tags: what a node's press part says first.
const (
	srvNone = iota // holder is nil (never booted)
	srvLive        // press alive: full state
	srvHusk        // press dead: stats, view, queue lengths
)

// machines lists every machine of the world in walk order: servers, then
// the front-end tier.
func (c *Cluster) machines() []*machine.Machine {
	return append(c.Machines[:len(c.Machines):len(c.Machines)], c.FEMachines...)
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

// snapWorld is the walk itself; loading, into the cold world
// buildForRestore made. A structural problem is a snapio.Failf panic,
// which Take and Restore turn into an error.
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
	for _, m := range c.machines() {
		m.SnapOwners(x)
		if !x.Saving() {
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
		if fn, ok := ev.Arg.(func()); ok {
			name = snapio.FnName(fn) // Sim.At/After: the closure, not the kernel's trampoline
		}
		snapio.Failf("harness: %d unclaimed pending events after save; first %s at %v seq %d",
			len(un), name, ev.At, ev.Seq)
	}

	now, seq, fired, maxQ, through := c.Sim.Counters()
	snapio.Int(x, &now)
	x.U64(&seq)
	x.U64(&fired)
	snapio.Int(x, &maxQ)
	x.U64(&through)
	if !x.Saving() {
		c.Sim.SetCounters(now, seq, fired, maxQ, through)
	}
}
