// Package livenet runs the same protocol components that the simulator
// hosts — the PRESS server, the membership daemon, the front-end — on
// real goroutines, real loopback TCP/UDP sockets and wall-clock time. It
// implements cnet.Env, so no component code changes. Both kinds of socket
// carry the snapshot engine's message encoding (wire.go): streams as
// numbered frames on one TCP trunk per (dialing incarnation, listener),
// datagrams behind the sender's ID.
//
// This is the demonstration runtime (cmd/pressd): you can watch an actual
// cluster of sockets detect a killed process, reconfigure, and reintegrate
// it. The availability experiments stay on the simulator, where time is
// virtual and every run is deterministic.
//
// Process model: a Node is a machine; each Proc spawned on it gets its
// own task queue and run token (the "main thread": one task at a time, in
// order), its own sockets, and its own incarnation counter. A goroutine
// that brings work to an idle process runs it there and then, as
// machine.Proc.postCall does in the simulator; no goroutine waits for
// work. A dial to a listener this incarnation already has a trunk to is a
// number on that trunk, not a connection: descriptors and read goroutines
// grow with peers, not with requests. Kill closes the sockets abortively
// (RST), so each stream's peer observes exactly the app-crash semantics
// the simulator models.
package livenet

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"press/internal/clock"
	"press/internal/cnet"
	"press/internal/metrics"
)

type portKey struct {
	node cnet.NodeID
	port string
}

// World is a registry of live nodes sharing one epoch and event log.
type World struct {
	epoch time.Time // instants are offsets from it
	log   *metrics.Log
	seed  int64

	mu       sync.Mutex
	tcpAddrs map[portKey]*listener
	udpAddrs map[portKey]*net.UDPAddr
	groups   map[string]map[cnet.NodeID]bool
	nodes    map[cnet.NodeID]*Node
	// unsendable holds the datagram types (reflect.Type) already reported as
	// impossible to encode: each is logged once, not once per heartbeat.
	unsendable sync.Map
}

// NewWorld creates an empty live world.
func NewWorld(seed int64) *World {
	return &World{
		epoch:    time.Now(),
		log:      &metrics.Log{},
		seed:     seed,
		tcpAddrs: make(map[portKey]*listener),
		udpAddrs: make(map[portKey]*net.UDPAddr),
		groups:   make(map[string]map[cnet.NodeID]bool),
		nodes:    make(map[cnet.NodeID]*Node),
	}
}

// Log returns the shared event log.
func (w *World) Log() *metrics.Log { return w.log }

// AddNode registers a machine.
func (w *World) AddNode(id cnet.NodeID) *Node {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.nodes[id]; dup {
		panic(fmt.Sprintf("livenet: duplicate node %d", id))
	}
	n := &Node{w: w, id: id, procs: make(map[string]*Proc)}
	w.nodes[id] = n
	return n
}

// Node is one live machine.
type Node struct {
	w     *World
	id    cnet.NodeID
	mu    sync.Mutex
	procs map[string]*Proc
}

// Spawn starts a process. start is its first task, run on a goroutine of
// its own: Spawn holds the node's lock, which start may need.
func (n *Node) Spawn(name string, start func(env cnet.Env)) *Proc {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.procs[name]; dup {
		panic("livenet: duplicate proc " + name)
	}
	p := &Proc{node: n, name: name, start: start}
	n.procs[name] = p
	p.boot()
	return p
}

// Proc returns the named process, or nil.
func (n *Node) Proc(name string) *Proc {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.procs[name]
}

// Proc is one live process (component instance + task queue).
type Proc struct {
	node  *Node
	name  string
	start func(env cnet.Env)
	mu    sync.Mutex
	env   *Env
	inc   uint64
}

func (p *Proc) boot() {
	p.mu.Lock()
	p.inc++
	e := &Env{
		p:    p,
		inc:  p.inc,
		rand: rand.New(rand.NewSource(p.node.w.seed ^ int64(p.node.id)<<20 ^ int64(p.inc))),
	}
	p.env = e
	p.mu.Unlock()
	// Nothing reaches the process before start binds its sockets, so start
	// is its first task, run by a goroutine of its own: not by Spawn's,
	// which holds the node's lock.
	go e.post(func() { p.start(e) })
}

// Kill stops the process abortively: sockets RST, timers die.
func (p *Proc) Kill() {
	p.mu.Lock()
	e := p.env
	p.env = nil
	p.mu.Unlock()
	if e != nil {
		e.shutdown()
	}
}

// Start boots a killed process afresh.
func (p *Proc) Start() {
	p.mu.Lock()
	dead := p.env == nil
	p.mu.Unlock()
	if dead {
		p.boot()
	}
}

// Alive reports whether the process is running.
func (p *Proc) Alive() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.env != nil
}

// Env implements cnet.Env on real sockets.
type Env struct {
	p    *Proc
	inc  uint64
	rand *rand.Rand

	qmu     sync.Mutex
	queue   []task // queue[head:] is waiting; the slots before head are spent
	head    int
	running bool // the run token: some goroutine is in drain's loop
	stalled bool
	dead    bool

	resMu     sync.Mutex
	sockets   []io.Closer // listeners and bound datagram sockets
	trunks    map[*trunk]bool
	dialed    map[*listener]*trunk // the trunks this incarnation dialed
	ownedKeys []portKey
	udp       *net.UDPConn // the one socket Send writes from, opened on first use
}

var _ cnet.Env = (*Env)(nil)

// task is one unit of the process's work: a callback (a timer, a
// datagram), or an event of a stream, which needs no closure to say what
// it is.
type task struct {
	kind  taskKind
	fn    func()
	dial  cnet.DialOwner
	conn  *stream
	msg   cnet.Message
	cause error
}

type taskKind uint8

const (
	runFn     taskKind = iota
	runDial            // dial.DialResult: conn, or with conn nil the cause
	runAccept          // conn was opened: ask its listener for its handlers
	runMsg             // OnMessage(conn, msg)
	runClose           // OnClose(conn, cause)
)

// run does the task. A stream's owner hears nothing of it after its own
// Close, and of its end only once.
func (t task) run() {
	s := t.conn
	switch t.kind {
	case runFn:
		t.fn()
	case runDial:
		if s == nil {
			t.dial.DialResult(nil, t.cause)
		} else {
			t.dial.DialResult(s, nil)
		}
	case runAccept:
		s.h = s.t.accept(s)
	case runMsg:
		if h := s.h.OnMessage; h != nil && !s.closed {
			h(s, t.msg)
		}
	case runClose:
		if !s.closed {
			s.closed = true
			if h := s.h.OnClose; h != nil {
				h(s, t.cause)
			}
		}
	}
}

// drain runs the queue on the calling goroutine, in order, until it is
// empty or the process stalls or dies — unless another goroutine holds
// the run token, and then that one runs it. qmu is held on entry and
// released on return; it is not held while a task runs, so a task may
// post, stall, resume or kill.
func (e *Env) drain() {
	if !e.running {
		e.running = true
		for !e.dead && !e.stalled && e.head < len(e.queue) {
			t := e.take()
			e.qmu.Unlock()
			t.run()
			e.qmu.Lock()
		}
		e.running = false
	}
	e.qmu.Unlock()
}

// take removes the task at the head of a non-empty queue; qmu is held.
func (e *Env) take() task {
	t := e.queue[e.head]
	e.queue[e.head] = task{}
	e.head++
	if e.head == len(e.queue) {
		e.queue, e.head = e.queue[:0], 0
	}
	return t
}

func (e *Env) post(fn func()) { e.enqueue(task{fn: fn}) }

// enqueue appends to the queue and, if the process is idle, runs it on
// the calling goroutine; a dead process takes no more work. The queue is
// a slice consumed from head, so the usual case — the work is run as it
// comes and the queue drains — reuses one backing array for good. Under a
// standing backlog the spent prefix is reclaimed once it is at least half
// the slice, which keeps both the copying and the memory proportional to
// what is actually waiting.
func (e *Env) enqueue(t task) {
	e.qmu.Lock()
	if !e.dead {
		if len(e.queue) == cap(e.queue) && 2*e.head >= len(e.queue) {
			n := copy(e.queue, e.queue[e.head:])
			clear(e.queue[n:])
			e.queue, e.head = e.queue[:n], 0
		}
		e.queue = append(e.queue, t)
	}
	e.drain()
}

func (e *Env) alive() bool {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	return !e.dead
}

// shutdown ends the incarnation: a task that is running finishes, no
// queued one starts. Its ports leave the registry before its sockets
// close, so a dialer that hears of the death can no longer reach it.
func (e *Env) shutdown() {
	e.qmu.Lock()
	e.dead = true
	e.qmu.Unlock()
	e.resMu.Lock()
	sockets, trunks, keys := e.sockets, e.trunks, e.ownedKeys
	e.sockets, e.trunks, e.dialed, e.ownedKeys = nil, nil, nil, nil
	if e.udp != nil {
		e.udp.Close()
	}
	e.resMu.Unlock()
	w := e.p.node.w
	for _, k := range keys {
		w.forget(k)
	}
	for _, c := range sockets {
		c.Close()
	}
	for t := range trunks {
		t.abort()
	}
}

// own records a port the incarnation bound, for shutdown to close and
// unregister; a dead incarnation's is closed and unregistered at once.
func (e *Env) own(key portKey, c io.Closer) {
	e.resMu.Lock()
	defer e.resMu.Unlock()
	if !e.alive() {
		c.Close()
		e.p.node.w.forget(key)
		return
	}
	e.sockets = append(e.sockets, c)
	e.ownedKeys = append(e.ownedKeys, key)
}

// Event kinds the transport itself emits into the world log (source
// "livenet"): things a component cannot see because the transport
// absorbed them.
var (
	// KSendDrop: the wire codec has no name for some type of datagram, so
	// none of them is ever sent. Emitted once per type.
	KSendDrop = metrics.InternKind("livenet.drop")
	// KWireFault: a stream was closed because what crossed it, or was
	// about to, is not the wire protocol.
	KWireFault = metrics.InternKind("livenet.wire")

	srcLivenet = metrics.InternSource("livenet")
)

func (e *Env) emit(kind metrics.KindID, detail string) {
	w := e.p.node.w
	w.log.EmitID(time.Since(w.epoch), srcLivenet, kind, int(e.p.node.id), detail)
}

// Local implements cnet.Env.
func (e *Env) Local() cnet.NodeID { return e.p.node.id }

// Rand implements cnet.Env.
func (e *Env) Rand() *rand.Rand { return e.rand }

// Events implements cnet.Env.
func (e *Env) Events() *metrics.Log { return e.p.node.w.log }

// Charge implements cnet.Env (live CPU time is real; nothing to model).
func (e *Env) Charge(time.Duration) {}

// Stall implements cnet.Env.
func (e *Env) Stall() {
	e.qmu.Lock()
	e.stalled = true
	e.qmu.Unlock()
}

// Resume implements cnet.Env: the backlog runs on the caller's goroutine,
// or, if a task of this process is the caller, after it.
func (e *Env) Resume() {
	e.qmu.Lock()
	e.stalled = false
	e.drain()
}

// Clock implements cnet.Env: wall time, callbacks through the task
// queue, dead with the incarnation.
func (e *Env) Clock() clock.Clock { return liveClock{e} }

type liveClock struct{ e *Env }

func (lc liveClock) Now() time.Duration { return time.Since(lc.e.p.node.w.epoch) }

func (lc liveClock) AfterFunc(d time.Duration, fn func()) clock.Timer {
	return lc.e.AfterFor(d, cnet.TimerFunc(fn))
}

// AfterFor implements cnet.Env: a wall-clock timer that posts the owner's
// method to the process while the incarnation lives.
func (e *Env) AfterFor(d time.Duration, owner cnet.TimerOwner) clock.Timer {
	return time.AfterFunc(d, func() {
		if e.alive() {
			e.post(owner.OnTimer)
		}
	})
}

// Hop implements cnet.Env.
func (e *Env) Hop(owner cnet.TimerOwner) { e.AfterFor(0, owner) }

// Every adapts the generic rearm-at-end ticker: each tick is posted to
// the process and the rearm happens after the callback ran there, so the
// ticker dies with the incarnation like any other timer.
func (lc liveClock) Every(d time.Duration, fn func()) clock.Ticker {
	return clock.NewFuncTicker(lc, d, fn)
}

// --- datagrams ---------------------------------------------------------------

// BindDatagram implements cnet.Env over a loopback UDP socket.
func (e *Env) BindDatagram(port string, h func(from cnet.NodeID, m cnet.Message)) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	w := e.p.node.w
	key := portKey{e.p.node.id, port}
	w.mu.Lock()
	w.udpAddrs[key] = pc.LocalAddr().(*net.UDPAddr)
	w.mu.Unlock()
	e.own(key, pc)
	go func() {
		buf := make([]byte, 64<<10)
		for {
			n, _, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			// Anyone on the host can write here. What is not a datagram of ours
			// is lost, and not logged: the log would be a stranger's to fill.
			from, m, err := parseDatagram(buf[:n])
			if err != nil {
				continue
			}
			if e.alive() {
				e.post(func() { h(from, m) })
			}
		}
	}()
}

// Send implements cnet.Env (datagram).
func (e *Env) Send(to cnet.NodeID, class cnet.Class, port string, m cnet.Message, size int) {
	w := e.p.node.w
	w.mu.Lock()
	addr := w.udpAddrs[portKey{to, port}]
	w.mu.Unlock()
	if addr == nil {
		return // nothing listening: UDP silently drops
	}
	buf := frameBufs.Get().(*[]byte)
	defer frameBufs.Put(buf)
	pkt, err := appendBody(appendSender((*buf)[:0], e.p.node.id), m)
	if err != nil {
		// Not a lost datagram but every datagram of this type, for good: a
		// type nobody had registered once kept gossip membership from ever
		// forming, in silence.
		if _, seen := w.unsendable.LoadOrStore(reflect.TypeOf(m), true); !seen {
			e.emit(KSendDrop, fmt.Sprintf("every %T datagram is dropped: %v", m, err))
		}
		return
	}
	*buf = pkt
	if conn := e.sendSocket(); conn != nil {
		conn.WriteToUDP(pkt, addr)
	}
}

// sendSocket is the incarnation's one unconnected loopback socket that
// every datagram leaves from, opened by the first Send and closed by
// shutdown; a dead process has none and opens none.
func (e *Env) sendSocket() *net.UDPConn {
	e.resMu.Lock()
	defer e.resMu.Unlock()
	if e.udp == nil && e.alive() {
		e.udp, _ = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	}
	return e.udp
}

// JoinGroup implements cnet.Env.
func (e *Env) JoinGroup(group string) {
	w := e.p.node.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.groups[group] == nil {
		w.groups[group] = make(map[cnet.NodeID]bool)
	}
	w.groups[group][e.p.node.id] = true
}

// Multicast implements cnet.Env by fanning out over the group registry
// (loopback "IP multicast").
func (e *Env) Multicast(group, port string, m cnet.Message, size int) {
	w := e.p.node.w
	w.mu.Lock()
	var members []cnet.NodeID
	for id := range w.groups[group] {
		if id != e.p.node.id {
			members = append(members, id)
		}
	}
	w.mu.Unlock()
	// Fan out in node order, not map order, so the delivery sequence is
	// reproducible across runs.
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	for _, id := range members {
		e.Send(id, cnet.ClassIntra, port, m, size)
	}
}

// --- streams -----------------------------------------------------------------

// listener is one registered stream port of one incarnation. Dialers key
// their trunks by it, not by its address, so a restarted listener that
// happens to get the old port is a new trunk's, never a dead one's.
type listener struct{ addr string }

// trunk is one TCP connection from a dialing incarnation to a listener:
// every stream between the two is a numbered sequence of frames on it. The
// two ends are one trunk record each, the dialer's (ln set) and the
// listener's (accept set), and each has one read goroutine.
type trunk struct {
	env    *Env
	ln     *listener                           // dialer's end: what the trunk is keyed by
	accept func(cnet.Conn) cnet.StreamHandlers // listener's end: the listener's callback
	// peer is the node at the other end: the one dialed, or on the
	// listener's end the one the preamble names, which arrives before any
	// stream is opened.
	peer cnet.NodeID
	c    *net.TCPConn // set once connected, before any stream exists

	mu      sync.Mutex
	streams map[uint32]*stream // open streams; on the listener's end also those it closed whose fin is unanswered
	ids     uint32             // the dialer's last id handed out; the listener's last id opened
	waiting []pendingDial      // non-nil while the trunk connects: the dials that wait for it
	ended   bool

	wmu    sync.Mutex
	opened uint32 // the dialer's last id whose open is written
}

type pendingDial struct {
	owner cnet.DialOwner
	h     cnet.StreamHandlers
}

// stream is a cnet.Conn: one id on a trunk.
type stream struct {
	t  *trunk
	id uint32
	h  cnet.StreamHandlers
	// word is the owner's (cnet.Env.SetConnWord), and closed is set by the
	// owner's Close or by the OnClose it is told; only the owner's tasks
	// touch either.
	word   uint64
	closed bool
	// finned: the stream has ended on this trunk (a fin went out or came
	// in, or the trunk ended), so nothing more is written for it. Whoever
	// sets it owes the owner the OnClose, unless that is the owner's Close.
	finned atomic.Bool
}

var _ cnet.Conn = (*stream)(nil)

// A dialer numbers at most this many streams on one trunk; the dial after
// that connects a fresh trunk. A listener holds at most maxStreams on one.
const (
	maxStreamID = math.MaxUint32
	maxStreams  = 1 << 16
)

func (s *stream) Peer() cnet.NodeID { return s.t.peer }

// TrySend implements cnet.Conn: one frame, one write, with the open of
// every stream numbered up to this one that still owes it. Live TCP
// buffers, so it never reports a full window. A message the wire codec
// cannot carry is a fault of this process, not a loss: the stream ends
// and both owners hear of it.
func (s *stream) TrySend(m cnet.Message, size int) bool {
	t := s.t
	buf := frameBufs.Get().(*[]byte)
	defer frameBufs.Put(buf)
	t.wmu.Lock()
	if s.finned.Load() {
		t.wmu.Unlock()
		return true // a dead stream discards, as the contract says
	}
	opened := t.opened
	frame, err := appendMsg(t.appendOpens((*buf)[:0], s.id), s.id, m)
	if cap(frame) <= 64<<10 {
		*buf = frame // keep what it grew to, unless a huge HelloMsg grew it
	}
	if err == nil {
		// A write to a dead trunk discards the message; the read loop is
		// what reports the death.
		_, _ = t.c.Write(frame)
	} else {
		t.opened = opened // the opens go out with the fin instead
	}
	t.wmu.Unlock()
	if err != nil {
		t.env.emit(KWireFault, err.Error())
		if s.fin() {
			t.env.enqueue(task{kind: runClose, conn: s, cause: cnet.ErrClosed})
		}
	}
	return true
}

// appendOpens appends the opens the dialer owes up to stream id, so opens
// reach the listener in order whichever stream speaks first; wmu is held.
func (t *trunk) appendOpens(b []byte, id uint32) []byte {
	if t.accept != nil {
		return b
	}
	for ; t.opened < id; t.opened++ {
		b = appendCtl(b, kindOpen, t.opened+1)
	}
	return b
}

// frameBufs recycles the buffer a frame is assembled in.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// Close implements cnet.Conn: a fin. As on the simulator, the side that
// closes is not told so: OnClose is the peer's news.
func (s *stream) Close() {
	if !s.closed {
		s.closed = true
		s.fin()
	}
}

// fin ends the stream from this side, once, and reports whether this call
// did: it writes the fin (and the open, if that is still owed), and on the
// dialer's end forgets the id at once. The listener's end keeps a stream
// it closed until the dialer's answering fin, so that it can tell frames
// that crossed its fin from frames a peer sent after its own.
func (s *stream) fin() bool {
	t := s.t
	t.wmu.Lock()
	if !s.finned.CompareAndSwap(false, true) {
		t.wmu.Unlock()
		return false
	}
	buf := frameBufs.Get().(*[]byte)
	_, _ = t.c.Write(appendCtl(t.appendOpens((*buf)[:0], s.id), kindFin, s.id))
	t.wmu.Unlock()
	frameBufs.Put(buf)
	if t.accept == nil {
		t.mu.Lock()
		delete(t.streams, s.id)
		t.mu.Unlock()
	}
	return true
}

// abort resets the trunk: Kill's way out, which each stream's peer hears
// as ErrReset. The read loop wakes with net.ErrClosed and tells no one.
func (t *trunk) abort() {
	t.c.SetLinger(0)
	t.c.Close()
}

// readLoop serves the trunk until it ends, then ends every stream on it.
func (t *trunk) readLoop() {
	t.end(t.serve(bufio.NewReader(t.c)))
}

// serve reads frames and posts what they mean to the owner, and returns
// the error that ended the trunk.
func (t *trunk) serve(br *bufio.Reader) error {
	if t.accept != nil {
		from, err := readPreamble(br)
		if err != nil {
			return err
		}
		t.peer = from
	}
	for {
		kind, id, m, err := readFrame(br)
		if err == nil {
			err = t.frame(kind, id, m)
		}
		if err != nil {
			return err
		}
	}
}

// frame applies one frame; an error is a wire fault that ends the trunk.
// A frame for a stream this side has closed is one that crossed the fin,
// and is dropped; one the peer sends for a stream it never opened, or
// after its own fin, breaks the protocol.
func (t *trunk) frame(kind byte, id uint32, m cnet.Message) error {
	e := t.env
	t.mu.Lock()
	s := t.streams[id]
	switch {
	case kind == kindOpen:
		s, err := t.open(id)
		t.mu.Unlock()
		if err == nil {
			e.enqueue(task{kind: runAccept, conn: s})
		}
		return err
	case s == nil:
		last := t.ids
		t.mu.Unlock()
		switch {
		case id == 0 || id > last:
			return fmt.Errorf("%w: a kind-%d frame for stream %d, which was never opened", errWire, kind, id)
		case t.accept != nil:
			return fmt.Errorf("%w: a kind-%d frame for stream %d after its fin", errWire, kind, id)
		}
		return nil
	case kind == kindFin:
		delete(t.streams, id)
	}
	t.mu.Unlock()
	if kind == kindMsg {
		if !s.finned.Load() {
			e.enqueue(task{kind: runMsg, conn: s, msg: m})
		}
		return nil
	}
	// A fin. The dialer answers one for a stream it has not closed; the
	// listener has nothing to answer, and one for a stream it closed is
	// that answer.
	var ended bool
	if t.accept == nil {
		ended = s.fin()
	} else {
		ended = s.finned.CompareAndSwap(false, true)
	}
	if ended {
		e.enqueue(task{kind: runClose, conn: s, cause: cnet.ErrClosed})
	}
	return nil
}

// open registers the stream an open frame names; mu is held. The dialer
// numbers its streams in order, so the id must be the next one.
func (t *trunk) open(id uint32) (*stream, error) {
	switch {
	case t.accept == nil:
		return nil, fmt.Errorf("%w: the listener opened stream %d", errWire, id)
	case id <= t.ids:
		return nil, fmt.Errorf("%w: a duplicate open of stream %d", errWire, id)
	case id > t.ids+1:
		return nil, fmt.Errorf("%w: an open of stream %d, past the next id %d", errWire, id, t.ids+1)
	case len(t.streams) >= maxStreams:
		return nil, fmt.Errorf("%w: more than %d streams on one trunk", errWire, maxStreams)
	}
	t.ids = id
	s := &stream{t: t, id: id}
	t.streams[id] = s
	return s, nil
}

// end releases the trunk, once its reader has stopped: the socket, its
// place in the incarnation's tables, and every stream still on it, whose
// owner hears why — unless the incarnation is the one that died.
func (t *trunk) end(err error) {
	e := t.env
	if errors.Is(err, errWire) {
		e.emit(KWireFault, err.Error()) // before the peer sees the trunk close
	}
	t.c.Close()
	e.resMu.Lock()
	delete(e.trunks, t)
	e.resMu.Unlock()
	e.retire(t)
	t.mu.Lock()
	t.ended = true
	left := make([]*stream, 0, len(t.streams))
	for _, s := range t.streams {
		left = append(left, s)
	}
	t.streams = nil
	t.mu.Unlock()
	if errors.Is(err, net.ErrClosed) {
		return // reset on this side: the process was killed
	}
	cause := closeCause(err)
	slices.SortFunc(left, func(a, b *stream) int { return cmp.Compare(a.id, b.id) })
	for _, s := range left {
		if s.finned.CompareAndSwap(false, true) {
			e.enqueue(task{kind: runClose, conn: s, cause: cause})
		}
	}
}

// closeCause maps the error that ended a trunk onto the transport errors
// components know: a reset if the peer's kernel said so (its process was
// killed), an orderly close otherwise.
func closeCause(err error) error {
	if errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return cnet.ErrReset
	}
	return cnet.ErrClosed
}

// dialCause does the same for a failed connect: refused when the machine
// answered that nothing listens, timed out for everything else.
func dialCause(err error) error {
	if errors.Is(err, syscall.ECONNREFUSED) {
		return cnet.ErrRefused
	}
	return cnet.ErrTimeout
}

// adopt makes a connected trunk the incarnation's, for shutdown to reset;
// a dead incarnation's is reset at once.
func (e *Env) adopt(t *trunk) bool {
	e.resMu.Lock()
	defer e.resMu.Unlock()
	if !e.alive() {
		t.abort()
		return false
	}
	if e.trunks == nil {
		e.trunks = make(map[*trunk]bool)
	}
	e.trunks[t] = true
	return true
}

// Listen implements cnet.Env over a loopback TCP listener: each
// connection it accepts is a trunk.
func (e *Env) Listen(port string, accept func(c cnet.Conn) cnet.StreamHandlers) {
	nl, err := listenCfg.Listen(context.Background(), "tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	w := e.p.node.w
	key := portKey{e.p.node.id, port}
	w.mu.Lock()
	w.tcpAddrs[key] = &listener{addr: nl.Addr().String()}
	w.mu.Unlock()
	e.own(key, nl)
	go func() {
		for {
			c, err := nl.Accept()
			if err != nil {
				return
			}
			t := &trunk{env: e, accept: accept, peer: cnet.None, c: c.(*net.TCPConn), streams: make(map[uint32]*stream)}
			if !e.adopt(t) {
				return
			}
			go t.readLoop()
		}
	}()
}

// forget unregisters a port whose incarnation died while binding it.
func (w *World) forget(key portKey) {
	w.mu.Lock()
	delete(w.tcpAddrs, key)
	delete(w.udpAddrs, key)
	w.mu.Unlock()
}

// SetConnWord implements cnet.Env.
func (e *Env) SetConnWord(c cnet.Conn, w uint64) {
	if s, ok := c.(*stream); ok {
		s.word = w
	}
}

// ConnWord implements cnet.Env.
func (e *Env) ConnWord(c cnet.Conn) uint64 {
	if s, ok := c.(*stream); ok {
		return s.word
	}
	return 0
}

// Keep-alive probing is off at both ends of every trunk. On loopback a
// dead peer process is a FIN or an RST at once, and a hung one is what the
// protocols' own heartbeats are for.
var (
	listenCfg = net.ListenConfig{KeepAlive: -1}
	dialer    = net.Dialer{Timeout: 3 * time.Second, KeepAlive: -1}
)

// DialFor implements cnet.Env. The handlers are asked for here, in the
// task that owns the record. A dial to a listener this incarnation has a
// trunk to posts its result at once; the first dial to one connects.
func (e *Env) DialFor(to cnet.NodeID, class cnet.Class, port string, owner cnet.DialOwner) {
	h := owner.DialHandlers()
	w := e.p.node.w
	w.mu.Lock()
	ln := w.tcpAddrs[portKey{to, port}]
	w.mu.Unlock()
	if ln == nil {
		// Nothing registered: the process is down.
		e.enqueue(task{kind: runDial, dial: owner, cause: cnet.ErrRefused})
		return
	}
	for {
		t := e.trunkTo(ln, to)
		if t == nil || t.dial(owner, h) {
			return
		}
	}
}

// Dial implements cnet.Env.
func (e *Env) Dial(to cnet.NodeID, class cnet.Class, port string, h cnet.StreamHandlers, result func(cnet.Conn, error)) {
	e.DialFor(to, class, port, &cnet.DialFuncs{H: h, Result: result})
}

// trunkTo returns the incarnation's trunk to ln, connecting one if there
// is none; a dead incarnation has none and connects none.
func (e *Env) trunkTo(ln *listener, to cnet.NodeID) *trunk {
	e.resMu.Lock()
	defer e.resMu.Unlock()
	if t := e.dialed[ln]; t != nil {
		return t
	}
	if !e.alive() {
		return nil
	}
	if e.dialed == nil {
		e.dialed = make(map[*listener]*trunk)
	}
	t := &trunk{env: e, ln: ln, peer: to, streams: make(map[uint32]*stream), waiting: []pendingDial{}}
	e.dialed[ln] = t
	go t.connect()
	return t
}

// dial numbers a stream for owner on the trunk and posts it, or, while the
// trunk connects, leaves the dial for connect to answer. It reports false
// when the trunk can take no more streams; it has left the dial table
// then, and the caller asks again.
func (t *trunk) dial(owner cnet.DialOwner, h cnet.StreamHandlers) bool {
	t.mu.Lock()
	switch {
	case t.ended || t.ids == maxStreamID:
		t.mu.Unlock()
		t.env.retire(t)
		return false
	case t.waiting != nil:
		t.waiting = append(t.waiting, pendingDial{owner, h})
		t.mu.Unlock()
		return true
	}
	s := t.newStream(h)
	t.mu.Unlock()
	t.env.enqueue(task{kind: runDial, dial: owner, conn: s})
	return true
}

// newStream numbers the next stream; mu is held.
func (t *trunk) newStream(h cnet.StreamHandlers) *stream {
	t.ids++
	s := &stream{t: t, id: t.ids, h: h}
	t.streams[s.id] = s
	return s
}

// retire takes a trunk out of the dial table, so the next dial to its
// listener connects anew; its streams carry on.
func (e *Env) retire(t *trunk) {
	e.resMu.Lock()
	if e.dialed[t.ln] == t {
		delete(e.dialed, t.ln)
	}
	e.resMu.Unlock()
}

// connect opens the trunk's socket and answers the dials that waited for
// it, in order; on success the goroutine goes on to be the trunk's reader.
func (t *trunk) connect() {
	e := t.env
	c, err := dialer.Dial("tcp", t.ln.addr)
	if err == nil {
		t.c = c.(*net.TCPConn)
		_, err = t.c.Write(appendPreamble(nil, e.p.node.id))
		switch {
		case err != nil:
			t.c.Close()
		case !e.adopt(t): // the process died meanwhile; adopt reset the socket
			err = net.ErrClosed
		}
	}
	t.mu.Lock()
	waiting := t.waiting
	t.waiting = nil
	posts := make([]task, len(waiting))
	for i, d := range waiting {
		if err == nil {
			posts[i] = task{kind: runDial, dial: d.owner, conn: t.newStream(d.h)}
		} else {
			posts[i] = task{kind: runDial, dial: d.owner, cause: dialCause(err)}
		}
	}
	t.ended = err != nil
	t.mu.Unlock()
	if err != nil {
		e.retire(t)
	}
	for _, p := range posts {
		e.enqueue(p)
	}
	if err == nil {
		t.readLoop()
	}
}

// MemDisk is the live stand-in for the disk subsystem: reads complete
// after a fixed service time, the queue never fills. Good enough for
// demonstrations; the simulator owns disk-fault fidelity.
type MemDisk struct {
	Service time.Duration
}

// ReadFor implements server.DiskArray.
func (d MemDisk) ReadFor(key int, owner interface{ DiskDone(ok bool) }) bool {
	svc := d.Service
	if svc <= 0 {
		svc = 2 * time.Millisecond
	}
	time.AfterFunc(svc, func() { owner.DiskDone(true) })
	return true
}

// NotifySpace implements server.DiskArray (the queue never fills).
func (d MemDisk) NotifySpace(interface{ DiskSpace() }) {}

// Probe implements fme.Disk.
func (d MemDisk) Probe(timeout time.Duration, owner interface{ DiskProbe(healthy bool) }) {
	time.AfterFunc(time.Millisecond, func() { owner.DiskProbe(true) })
}
