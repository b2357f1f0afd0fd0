package metrics

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// Event is one timestamped occurrence recorded by a component during an
// experiment. The harness reads the log to locate the numbered events of
// the 7-stage template (fault occurs, fault detected, component recovers,
// operator reset, ...) and tests read it to assert protocol behaviour.
//
// Event is the materialized, public view: source and kind stay the
// interned IDs the log stores (they print as their names), and the
// possibly lazily formatted detail is rendered on read.
type Event struct {
	At     time.Duration // virtual time
	Source SourceID      // component, e.g. "press/3", "membd/2", "fme/1", "frontend", "injector"
	Kind   KindID        // e.g. KFaultInject, KExclude, KMemberJoin
	Node   int           // node the event concerns, -1 if not applicable
	Detail string
}

func (e Event) String() string {
	return fmt.Sprintf("%9.2fs %-10s %-22s node=%-2d %s",
		e.At.Seconds(), e.Source, e.Kind, e.Node, e.Detail)
}

// SourceID is an interned event source tag. Components intern their tag
// once at construction (e.g. "press/3") and emit by ID so the hot path
// never rebuilds or hashes the string.
type SourceID uint16

// KindID is an interned event kind: the one vocabulary components emit in
// and readers match on. The well-known kinds have fixed IDs; a component
// with a kind of its own interns it once, as a package-level variable.
type KindID uint16

// The fixed kinds shared across components, with the names they print as.
const (
	KFaultInject    KindID = iota // injector: fault becomes active
	KFaultRepair                  // injector: fault repaired
	KDetect                       // any detector: fault noticed
	KExclude                      // node removed from a cooperation/membership/routing view
	KInclude                      // node (re)admitted to a view
	KOperatorReset                // harness: operator restarts the server
	KServerUp                     // server process finished starting
	KServerDown                   // server process stopped
	KFMEAction                    // FME translated a fault
	KSplinter                     // cooperation views became mutually disjoint
	KQMonReroute                  // queue monitor started rerouting
	KQMonFail                     // queue monitor declared a peer failed
	KMemberJoin                   // membership: node joined group
	KMemberLeave                  // membership: node removed from group
	KFrontendMask                 // front-end stopped routing to a node
	KFrontendUnmask               // front-end resumed routing to a node
	numFixedKinds
)

var fixedKinds = [numFixedKinds]string{
	KFaultInject:    "fault.inject",
	KFaultRepair:    "fault.repair",
	KDetect:         "detect",
	KExclude:        "exclude",
	KInclude:        "include",
	KOperatorReset:  "operator.reset",
	KServerUp:       "server.up",
	KServerDown:     "server.down",
	KFMEAction:      "fme.action",
	KSplinter:       "splinter",
	KQMonReroute:    "qmon.reroute",
	KQMonFail:       "qmon.fail",
	KMemberJoin:     "member.join",
	KMemberLeave:    "member.leave",
	KFrontendMask:   "frontend.mask",
	KFrontendUnmask: "frontend.unmask",
}

// Fixed source registry: singleton component tags. Per-node tags
// ("press/3", "membd/2", "fme/1") intern dynamically via InternSource.
const (
	SrcMachine SourceID = iota
	SrcInjector
	SrcFrontend
	SrcOperator
	numFixedSources
)

var fixedSources = [numFixedSources]string{
	SrcMachine:  "machine",
	SrcInjector: "injector",
	SrcFrontend: "frontend",
	SrcOperator: "operator",
}

// names is one interning table: names to dense IDs and back, seeded with
// the fixed ones. It is global (IDs are process-wide), append-only, and
// guarded by a mutex: parallel episode workers may intern concurrently,
// and because matching and rendering always go through the same
// bijection, ID assignment order cannot affect any rendered output.
type names struct {
	mu   sync.RWMutex
	ids  map[string]uint16
	list []string
}

func newNames(fixed []string) *names {
	t := &names{ids: make(map[string]uint16, len(fixed)), list: fixed}
	for id, name := range fixed {
		t.ids[name] = uint16(id)
	}
	return t
}

func (t *names) intern(name string) uint16 {
	t.mu.RLock()
	id, ok := t.ids[name]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok = t.ids[name]; ok {
		return id
	}
	id = uint16(len(t.list))
	t.ids[name] = id
	t.list = append(t.list, name)
	return id
}

func (t *names) name(id uint16) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.list[id]
}

var sources, kinds = newNames(fixedSources[:]), newNames(fixedKinds[:])

// InternSource returns the ID for a source tag, registering it on first
// use. Call once at component construction, not per emit.
func InternSource(name string) SourceID { return SourceID(sources.intern(name)) }

// InternKind returns the ID for an event kind outside the fixed set,
// registering it on first use. Call once, for a package-level variable.
func InternKind(name string) KindID { return KindID(kinds.intern(name)) }

func (id SourceID) String() string { return sources.name(uint16(id)) }
func (id KindID) String() string   { return kinds.name(uint16(id)) }

// record is the internal storage form of one event: interned IDs and a
// detail that is either a literal string (nargs == 0) or a format string
// plus an integer arg rendered only when something reads the event. A
// hot emit therefore stores two words of strings and a few integers — no
// formatting, no interface boxing. 48 B (TestRecordSize).
type record struct {
	at     time.Duration
	a0     int64
	detail string // literal detail, or Sprintf format when nargs > 0
	node   int32
	src    SourceID
	kind   KindID
	nargs  uint8
}

func (r *record) renderDetail() string {
	if r.nargs == 1 {
		return fmt.Sprintf(r.detail, r.a0)
	}
	return r.detail
}

func (r *record) event() Event {
	return Event{At: r.at, Source: r.src, Kind: r.kind, Node: int(r.node), Detail: r.renderDetail()}
}

// Log storage is a list of chunks, every one but the last full at
// chunkSize records, so record i is always chunks[i>>chunkShift][i&chunkMask].
// A fresh log's chunks are made full-sized, and steady-state emission
// costs one chunk allocation per chunkSize events. A restored log's last
// chunk is made at the number of records it restores and grows by
// doubling until full (grow), so a forked run that appends a few dozen
// events keeps a few dozen records, not a whole chunk; a finished run's
// log is cut to its records (Trim). A growth or a cut moves the last
// chunk's records; every reader holds l.mu.
const (
	chunkShift = 8
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// Log is an append-only structured event log. A small mutex makes it safe
// for livenet's concurrent nodes; under the single-threaded simulator the
// lock is uncontended. The zero value is ready to use.
type Log struct {
	mu     sync.Mutex
	chunks [][]record
	n      int
}

func (l *Log) append(r record) {
	l.mu.Lock()
	c, i := l.n>>chunkShift, l.n&chunkMask
	if c == len(l.chunks) {
		l.chunks = append(l.chunks, make([]record, chunkSize))
	} else if i == len(l.chunks[c]) {
		l.grow()
	}
	l.chunks[c][i] = r
	l.n++
	l.mu.Unlock()
}

// grow doubles the full last chunk of a restored log, up to chunkSize.
func (l *Log) grow() {
	last := &l.chunks[len(l.chunks)-1]
	grown := make([]record, min(2*len(*last), chunkSize))
	copy(grown, *last)
	*last = grown
}

// Trim cuts the last chunk to the records it holds, for a finished run's
// log that is kept but no longer grows: a restored chunk's doubling and a
// fresh chunk's room stop costing memory. An append after Trim still
// lands, through grow.
func (l *Log) Trim() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := l.n & chunkMask; n != 0 && len(l.chunks[len(l.chunks)-1]) > n {
		last := &l.chunks[len(l.chunks)-1]
		*last = slices.Clone((*last)[:n])
	}
}

// rec returns the i'th record. Callers hold l.mu: a growth moves the
// last chunk.
func (l *Log) rec(i int) *record {
	return &l.chunks[i>>chunkShift][i&chunkMask]
}

// EmitID appends an event with pre-interned source and kind IDs and a
// literal detail. With a constant or precomputed detail this is
// allocation-free in the steady state.
func (l *Log) EmitID(at time.Duration, src SourceID, kind KindID, node int, detail string) {
	l.append(record{at: at, src: src, kind: kind, node: int32(node), detail: detail})
}

// EmitInt appends an event whose detail renders fmt.Sprintf(format, v)
// lazily, only when the event is read. The emit itself does no
// formatting and no boxing.
func (l *Log) EmitInt(at time.Duration, src SourceID, kind KindID, node int, format string, v int64) {
	l.append(record{at: at, src: src, kind: kind, node: int32(node), detail: format, a0: v, nargs: 1})
}

// Len returns the number of recorded events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Cursor iterates a Log in emission order without snapshotting it: each
// Next materializes exactly one event. A cursor is an index, so it stays
// valid while the log grows; events appended after the cursor passes the
// end are picked up by subsequent Next calls.
type Cursor struct {
	l *Log
	i int
}

// Cursor returns an iterator positioned before the first event.
func (l *Log) Cursor() Cursor { return Cursor{l: l} }

// Next returns the next event, materializing it from interned storage.
func (c *Cursor) Next() (Event, bool) {
	c.l.mu.Lock()
	if c.i >= c.l.n {
		c.l.mu.Unlock()
		return Event{}, false
	}
	r := *c.l.rec(c.i)
	c.l.mu.Unlock()
	c.i++
	return r.event(), true
}

// maxInstant is the open upper bound of an unwindowed Query.
const maxInstant = time.Duration(1<<63 - 1)

// Query is an immutable filtered view over a Log. Queries chain:
//
//	log.Query().Source(fme2).Kind(metrics.KFMEAction).Between(t0, t1).Count()
//	log.Query().Kind(metrics.KMemberLeave).Node(3).After(crash).First()
//
// A Query holds no snapshot; each terminal call (Count, Events, First,
// FirstWhere) scans the interned records under the log's lock — source
// and kind filters compare IDs, and an event is materialized only when
// its record matches. Events are appended in nondecreasing time order,
// so "first in emission order" and "earliest" coincide.
type Query struct {
	l       *Log
	src     SourceID
	kind    KindID
	hasSrc  bool
	hasKind bool
	node    int32
	hasNode bool
	from    time.Duration
	to      time.Duration // exclusive
}

// Query starts a query matching every event of the log.
func (l *Log) Query() Query { return Query{l: l, to: maxInstant} }

// Source narrows the query to events from the given source.
func (q Query) Source(s SourceID) Query {
	q.src, q.hasSrc = s, true
	return q
}

// Kind narrows the query to events of the given kind.
func (q Query) Kind(k KindID) Query {
	q.kind, q.hasKind = k, true
	return q
}

// Between narrows the query to the time window [t0, t1).
func (q Query) Between(t0, t1 time.Duration) Query {
	q.from, q.to = t0, t1
	return q
}

// After narrows the query to events at or after t0.
func (q Query) After(t0 time.Duration) Query {
	q.from = t0
	return q
}

// Node narrows the query to events concerning the given node.
func (q Query) Node(n int) Query {
	q.node, q.hasNode = int32(n), true
	return q
}

func (q Query) match(r *record) bool {
	if r.at < q.from || r.at >= q.to {
		return false
	}
	if q.hasSrc && r.src != q.src {
		return false
	}
	if q.hasKind && r.kind != q.kind {
		return false
	}
	return !q.hasNode || r.node == q.node
}

// Count returns how many events match the query.
func (q Query) Count() int {
	q.l.mu.Lock()
	defer q.l.mu.Unlock()
	n := 0
	for i := 0; i < q.l.n; i++ {
		if q.match(q.l.rec(i)) {
			n++
		}
	}
	return n
}

// Events returns the matching events in emission order.
func (q Query) Events() []Event {
	q.l.mu.Lock()
	defer q.l.mu.Unlock()
	var out []Event
	for i := 0; i < q.l.n; i++ {
		if r := q.l.rec(i); q.match(r) {
			out = append(out, r.event())
		}
	}
	return out
}

// First returns the earliest matching event.
func (q Query) First() (Event, bool) {
	return q.FirstWhere(nil)
}

// FirstWhere returns the earliest event matching both the query and the
// predicate (nil = no extra condition). It exists for conditions the
// filters cannot express, e.g. a set of kinds; the predicate compares IDs.
func (q Query) FirstWhere(pred func(Event) bool) (Event, bool) {
	q.l.mu.Lock()
	defer q.l.mu.Unlock()
	for i := 0; i < q.l.n; i++ {
		if r := q.l.rec(i); q.match(r) {
			e := r.event()
			if pred == nil || pred(e) {
				return e, true
			}
		}
	}
	return Event{}, false
}

// Dump renders the full log, one event per line, for debugging and the
// example programs.
func (l *Log) Dump() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var b strings.Builder
	for i := 0; i < l.n; i++ {
		b.WriteString(l.rec(i).event().String())
		b.WriteByte('\n')
	}
	return b.String()
}
