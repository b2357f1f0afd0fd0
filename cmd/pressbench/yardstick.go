package main

import "time"

// The yardstick: a fixed piece of work that shares no code with the
// repository, timed beside every workload to tell how fast the host is
// running right now.
//
// The box this benchmark was written on is a shared VM whose memory-bound
// speed drops by 30-60% for minutes to an hour at a time, with no steal
// time and no effect on an ALU-only loop (README.md, "Noise"). Whole runs
// land inside such a phase, so no statistic over a run's repeats averages
// it away. What does track it is code of the same kind run at the same
// time: this miniature discrete-event simulation, with heap-ordered
// events, small heap-allocated messages, a map of messages in flight and
// per-node inboxes, allocates and collects at the rate the simulator does
// and slows down with it (measured over 350 interleaved rounds: raw
// interquartile spread 19-21%, divided by the yardstick 5-7%; a pointer
// chase or the bare kernel rig did half as well or not at all).
//
// The end-to-end host times are therefore reported at yardstick speed 1:
// the raw time divided by the run's slowdown, the median yardstick slice
// over yardNominal. The raw medians and the slowdown are reported beside
// them, and every per-layer host time stays raw.

const (
	// yardEvents is one slice of yardstick work.
	yardEvents = 250_000
	// yardSlices is how many slices one sampling takes; a single slice
	// jitters by ±12%, so a run's slowdown is the median of some thirty.
	yardSlices = 8
	// yardNominal is one slice on the baseline machine in a quiet phase.
	yardNominal = 41 * time.Millisecond
)

type yardMsg struct {
	id       uint64
	from, to int32
	body     [5]uint64
}

type yardEvent struct {
	at      int64
	deliver bool
	node    int32
	msg     *yardMsg
}

type yardSim struct {
	heap     []*yardEvent
	now      int64
	rng      uint64
	inflight map[uint64]*yardMsg
	inbox    [][]*yardMsg
	nextID   uint64
}

func (s *yardSim) rand() uint64 {
	s.rng = s.rng*6364136223846793005 + 1442695040888963407
	return s.rng >> 33
}

func (s *yardSim) push(e *yardEvent) {
	s.heap = append(s.heap, e)
	for i := len(s.heap) - 1; i > 0; {
		p := (i - 1) / 2
		if s.heap[p].at <= s.heap[i].at {
			break
		}
		s.heap[p], s.heap[i] = s.heap[i], s.heap[p]
		i = p
	}
}

func (s *yardSim) pop() *yardEvent {
	top := s.heap[0]
	n := len(s.heap) - 1
	s.heap[0], s.heap[n] = s.heap[n], nil
	s.heap = s.heap[:n]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && s.heap[l].at < s.heap[m].at {
			m = l
		}
		if r < n && s.heap[r].at < s.heap[m].at {
			m = r
		}
		if m == i {
			return top
		}
		s.heap[i], s.heap[m] = s.heap[m], s.heap[i]
		i = m
	}
}

// yardSlice runs one slice: 1,024 chains over 64 nodes, each alternating
// a send (allocate a message, file it in flight, schedule its delivery)
// and a delivery (unfile it, append it to the node's bounded inbox,
// schedule the node's next send).
func yardSlice() time.Duration {
	const nodes, chains = 64, 1024
	s := &yardSim{rng: 7, inflight: map[uint64]*yardMsg{}, inbox: make([][]*yardMsg, nodes)}
	for i := 0; i < chains; i++ {
		s.push(&yardEvent{at: int64(i), node: int32(i % nodes)})
	}
	t0 := time.Now()
	for n := 0; n < yardEvents; n++ {
		e := s.pop()
		s.now = e.at
		if !e.deliver {
			s.nextID++
			m := &yardMsg{id: s.nextID, from: e.node, to: int32(s.rand() % nodes)}
			m.body[0] = s.rand()
			s.inflight[m.id] = m
			s.push(&yardEvent{at: s.now + 50 + int64(s.rand()%100), deliver: true, node: m.to, msg: m})
			continue
		}
		delete(s.inflight, e.msg.id)
		box := s.inbox[e.node]
		if len(box) >= 8 {
			copy(box, box[1:])
			box = box[:7]
		}
		s.inbox[e.node] = append(box, e.msg)
		s.push(&yardEvent{at: s.now + 1 + int64(s.rand()%7), node: e.node})
	}
	return time.Since(t0)
}
