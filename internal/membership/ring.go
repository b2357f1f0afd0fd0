package membership

import (
	"fmt"
	"slices"
	"time"

	"press/internal/clock"
	"press/internal/cnet"
	"press/internal/metrics"
)

// ring is the paper's agreement (§4.2, after Cristian and Schmuck):
// members heartbeat their two ring neighbours, the detector of a silence
// coordinates the exclusion through a two-phase commit, and a node that
// could be in a better group multicasts a join request, collects offers
// and asks the best offerer to coordinate its admission.
type ring struct {
	*Daemon
	// missDetail is the constant heartbeat-miss detect reason, formatted
	// once at construction.
	missDetail string

	lastSeen map[cnet.NodeID]time.Duration
	busy     bool
	wait     *ackWait
	// acks are the armed ack timeouts, oldest first. One is never stopped:
	// a change the acks completed early leaves its timeout to fire into
	// whatever came after, which is why each carries its version.
	acks []*ackTimer

	// offers gathers the answers to a join request while collecting: the
	// offer window, whose timer the ring owns (OnTimer).
	offers     []MJoinOffer
	collecting bool

	hbT   clock.Ticker
	seekT clock.Ticker // variable-period seek loop, retimed each pass

	// hbPool recycles heartbeat records; receivers release them.
	hbPool cnet.MsgPool[MHeartbeat]
}

func newRing(d *Daemon) *ring {
	r := &ring{
		Daemon:     d,
		missDetail: fmt.Sprintf("membership: %d heartbeats missed", d.cfg.HBMiss),
		lastSeen:   make(map[cnet.NodeID]time.Duration),
	}
	r.env.JoinGroup(JoinGroup)
	return r
}

func (r *ring) start() {
	r.install(1, r.members, "boot")
	r.hbT = r.env.Clock().Every(r.cfg.HBPeriod, r.tick)
	r.seekLater(true)
}

// install adopts a view and gives every member of the new ring shape a
// full grace window.
func (r *ring) install(ver uint64, members []cnet.NodeID, why string) {
	old := r.members
	r.Daemon.install(ver, members, why)
	now := r.env.Clock().Now()
	for _, m := range r.members {
		r.lastSeen[m] = now
	}
	for _, m := range old {
		if !slices.Contains(r.members, m) {
			delete(r.lastSeen, m)
		}
	}
	r.busy = false
}

// neighbours returns the ring neighbours (upstream, downstream).
func (r *ring) neighbours() (up, down cnet.NodeID) {
	n := len(r.members)
	if n <= 1 {
		return cnet.None, cnet.None
	}
	idx, _ := slices.BinarySearch(r.members, r.cfg.Self)
	return r.members[(idx-1+n)%n], r.members[(idx+1)%n]
}

func (r *ring) tick() {
	up, down := r.neighbours()
	now := r.env.Clock().Now()
	for _, nb := range []cnet.NodeID{up, down} {
		if nb == cnet.None || nb == r.cfg.Self {
			continue
		}
		hb := NewMHeartbeat(&r.hbPool)
		hb.From, hb.Ver = r.cfg.Self, r.version
		r.env.Send(nb, cnet.ClassIntra, Port, hb, 48)
		deadline := time.Duration(r.cfg.HBMiss) * r.cfg.HBPeriod
		if seen, ok := r.lastSeen[nb]; ok && now-seen > deadline {
			r.emit(metrics.KDetect, nb, r.missDetail)
			r.startExclusion(nb)
		}
	}
}

// startExclusion coordinates the two-phase removal of n.
func (r *ring) startExclusion(n cnet.NodeID) {
	if r.busy || !r.isMember(n) || n == r.cfg.Self {
		return
	}
	var next []cnet.NodeID
	for _, m := range r.members {
		if m != n {
			next = append(next, m)
		}
	}
	r.runChange(next, n, false)
}

// runChange runs the 2PC for a proposed view.
func (r *ring) runChange(proposed []cnet.NodeID, subject cnet.NodeID, add bool) {
	r.busy = true
	ver := r.version + 1
	prep := MPrepare{From: r.cfg.Self, Ver: ver, Members: proposed, Subject: subject, Add: add}
	acked := map[cnet.NodeID]bool{r.cfg.Self: true}
	need := 0
	for _, m := range proposed {
		if m != r.cfg.Self {
			need++
			r.env.Send(m, cnet.ClassIntra, Port, prep, 64+4*len(proposed))
		}
	}
	r.expectAcks(ver, proposed, acked, need, subject, add)
}

// ackWait tracks one in-flight 2PC at the coordinator.
type ackWait struct {
	ver      uint64
	proposed []cnet.NodeID
	acked    map[cnet.NodeID]bool
	need     int
	subject  cnet.NodeID // the node being added or removed, for the log
	add      bool
}

// ackTimer is one armed ack timeout, the owner of its timer: the version
// it was armed for.
type ackTimer struct {
	r   *ring
	ver uint64
}

func (r *ring) armAckTimeout(ver uint64) *ackTimer {
	a := &ackTimer{r: r, ver: ver}
	r.acks = append(r.acks, a)
	return a
}

// OnTimer implements cnet.TimerOwner.
func (a *ackTimer) OnTimer() {
	r := a.r
	r.acks = slices.DeleteFunc(r.acks, func(o *ackTimer) bool { return o == a })
	r.commit(a.ver)
}

func (r *ring) expectAcks(ver uint64, proposed []cnet.NodeID, acked map[cnet.NodeID]bool, need int, subject cnet.NodeID, add bool) {
	r.wait = &ackWait{ver: ver, proposed: proposed, acked: acked, need: need, subject: subject, add: add}
	if need == 0 {
		r.commit(ver)
		return
	}
	r.env.AfterFor(r.cfg.ackTimeout(), r.armAckTimeout(ver))
}

// commit ends the change proposed as ver, when the last ack arrives or
// its timeout fires, whichever is first; the other finds it done.
func (r *ring) commit(ver uint64) {
	if r.wait == nil || r.wait.ver != ver {
		return
	}
	w := r.wait
	r.wait = nil
	// Commit to everyone who acked; the silent ones will be detected
	// and excluded by heartbeat monitoring in due course.
	var final []cnet.NodeID
	for _, m := range w.proposed {
		if w.acked[m] {
			final = append(final, m)
		}
	}
	cm := MCommit{From: r.cfg.Self, Ver: ver, Members: final}
	for _, m := range final {
		if m != r.cfg.Self {
			r.env.Send(m, cnet.ClassIntra, Port, cm, 64+4*len(final))
		}
	}
	what := "exclude"
	if w.add {
		what = "admit"
	}
	r.install(ver, final, fmt.Sprintf("%s %d (coordinator)", what, w.subject))
}

func (r *ring) onMessage(from cnet.NodeID, m cnet.Message) {
	switch msg := m.(type) {
	case *MHeartbeat:
		r.lastSeen[msg.From] = r.env.Clock().Now()
		msg.Release()
	case MNodeDown:
		if r.isMember(msg.Node) {
			r.emit(metrics.KDetect, msg.Node, "application NodeDown hint")
			r.startExclusion(msg.Node)
		}
	case MPrepare:
		if msg.Ver <= r.version {
			return // stale proposal
		}
		r.env.Send(msg.From, cnet.ClassIntra, Port, MAck{From: r.cfg.Self, Ver: msg.Ver}, 48)
	case MAck:
		if r.wait != nil && r.wait.ver == msg.Ver && !r.wait.acked[msg.From] {
			r.wait.acked[msg.From] = true
			r.wait.need--
			if r.wait.need <= 0 {
				r.commit(msg.Ver)
			}
		}
	case MCommit:
		if msg.Ver <= r.version {
			return
		}
		if !slices.Contains(msg.Members, r.cfg.Self) {
			return // a view without us is not ours to install
		}
		r.install(msg.Ver, msg.Members, fmt.Sprintf("commit from %d", msg.From))
	case MJoinReq:
		r.onJoinReq(msg)
	case MJoinOffer:
		if r.collecting {
			r.offers = append(r.offers, msg)
		}
	case MJoinAsk:
		if r.busy || r.isMember(msg.From) {
			return
		}
		r.runChange(append(append([]cnet.NodeID(nil), r.members...), msg.From), msg.From, true)
	}
}

// onJoinReq answers a seeker when our group would be better for it.
func (r *ring) onJoinReq(msg MJoinReq) {
	if r.isMember(msg.From) {
		return
	}
	if !betterGroup(r.members, msg.Members) {
		return
	}
	r.env.Send(msg.From, cnet.ClassIntra, Port,
		MJoinOffer{From: r.cfg.Self, Ver: r.version, Members: r.Members()}, 64+4*len(r.members))
}

// betterGroup reports whether group a is preferable to group b: strictly
// larger, or equal-sized with a lower minimum ID. The asymmetry guarantees
// convergence to a single group after partitions heal.
func betterGroup(a, b []cnet.NodeID) bool {
	if len(a) != len(b) {
		return len(a) > len(b)
	}
	if len(a) == 0 {
		return false
	}
	return slices.Min(a) < slices.Min(b)
}

func (r *ring) seekLater(fast bool) {
	period := r.cfg.seekPeriod()
	if fast || len(r.members) == 1 {
		period = r.cfg.seekPeriod() / 4
	}
	if r.seekT == nil {
		r.seekT = r.env.Clock().Every(period, r.seek)
		return
	}
	// Inside seek's deferred rearm: replaces the ticker's automatic rearm
	// with the period chosen for the current group size.
	r.seekT.Reschedule(period)
}

// seek multicasts a join request and, after the offer window, asks the
// best offering member to admit us.
func (r *ring) seek() {
	defer r.seekLater(false)
	if r.busy || r.collecting {
		return
	}
	r.collecting = true
	r.offers = nil
	r.env.Multicast(JoinGroup, Port, MJoinReq{
		From:    r.cfg.Self,
		Size:    len(r.members),
		MinID:   slices.Min(r.members),
		Members: r.Members(),
	}, 64+4*len(r.members))
	r.env.AfterFor(r.cfg.offerWindow(), r)
}

// OnTimer implements cnet.TimerOwner for the offer window, and ends it:
// ask the best offering member, if any offered a better group than ours,
// to admit us.
func (r *ring) OnTimer() {
	r.collecting = false
	best := -1
	for i, off := range r.offers {
		if !betterGroup(off.Members, r.members) {
			continue
		}
		if best == -1 || betterGroup(r.offers[i].Members, r.offers[best].Members) {
			best = i
		}
	}
	if best == -1 {
		return
	}
	r.env.Send(r.offers[best].From, cnet.ClassIntra, Port, MJoinAsk{From: r.cfg.Self}, 48)
}
