// Package simdisk models the per-node SCSI disk subsystem of the paper's
// testbed (two disks per node, accessed through PRESS's pool of disk
// helper threads and a shared disk queue) and its one fault mode, the SCSI
// timeout: operations submitted to a faulty disk never complete.
//
// The structure matters for reproducing Figure 4. When one disk times out,
// the helper threads blocked on it are captured one by one; once all
// threads are stuck the shared disk queue fills at the node's miss rate,
// and then the PRESS main thread blocks trying to enqueue — which silences
// its heartbeats and stalls the entire cooperative cluster.
package simdisk

import (
	"math/rand"
	"time"

	"press/internal/sim"
)

// Config describes a node's disk subsystem.
type Config struct {
	// MeanService is the average time one disk takes to satisfy one read
	// (seek + rotation + transfer for a 27 KB file).
	MeanService time.Duration
	// JitterFrac spreads individual service times uniformly in
	// [Mean*(1-j), Mean*(1+j)].
	JitterFrac float64
	// QueueCap bounds the shared queue of not-yet-started operations; a
	// full queue blocks the PRESS main thread.
	QueueCap int
	// Workers is the number of disk helper threads.
	Workers int
}

// DefaultConfig models the 2x10K rpm SCSI subsystem at the simulation's
// time scale. (The whole simulation runs ~10x slower than the 2003
// hardware so that a fault-injection campaign stays cheap; CPU and disk
// costs share the scale, so ratios — and therefore availability — are
// preserved.)
func DefaultConfig() Config {
	return Config{MeanService: 65 * time.Millisecond, JitterFrac: 0.3, QueueCap: 16, Workers: 2}
}

// Disk is a single device: a fault flag and a service-time sampler.
type Disk struct {
	sim    *sim.Sim
	rng    *rand.Rand
	mean   time.Duration //availlint:skipfield mean construction config, identical across forks
	jitter float64       //availlint:skipfield jitter construction config, identical across forks
	faulty bool
	// degraded multiplies service times when > 1 (the gray disk fault):
	// reads and probes still complete — just slower — so binary SCSI
	// health checks keep passing.
	degraded float64
	reads    uint64
	arr      *Array // owner backlink, set at construction
}

// Faulty reports the fault state.
func (d *Disk) Faulty() bool { return d.faulty }

// Degraded reports whether the device is in gray degradation.
func (d *Disk) Degraded() bool { return d.degraded > 1 }

// SetDegraded injects (factor > 1) or repairs (factor <= 1) the gray
// disk fault: every service time is multiplied by factor, while probes
// keep reporting healthy.
func (d *Disk) SetDegraded(factor float64) {
	if factor <= 1 {
		factor = 0
	}
	d.degraded = factor
}

// Reads returns the number of reads this device completed.
func (d *Disk) Reads() uint64 { return d.reads }

// SetFaulty injects or repairs the SCSI-timeout fault. Repair releases
// any helper threads blocked on this device.
func (d *Disk) SetFaulty(f bool) {
	if d.faulty == f {
		return
	}
	d.faulty = f
	if !f && d.arr != nil {
		d.arr.releaseBlocked(d)
	}
}

// probe issues a direct SCSI health check, the way the FME daemon does
// through the SCSI generic interface: it bypasses the request queue, so it
// works even when the queue is full and all helper threads are stuck. A
// faulty disk reports unhealthy after `timeout`, any other its state after
// one service time.
func (d *Disk) probe(timeout time.Duration, r *probeRound) {
	op := &probeOp{d: d, timedOut: d.faulty, round: r}
	if d.faulty {
		d.sim.AfterArg(timeout, probeDone, op)
		return
	}
	d.sim.AfterArg(d.serviceTime(), probeDone, op)
}

// probeOp is one device's health check in flight.
type probeOp struct {
	d        *Disk
	timedOut bool // the device was faulty when probed; this is its timeout
	round    *probeRound
}

// probeRound is one Array.Probe: unhealthy as soon as one device says so,
// healthy once all have passed.
type probeRound struct {
	remaining int
	reported  bool
	owner     ProbeOwner // hears the verdict
}

// probeDone is the completion callback of Disk.probe.
func probeDone(arg any) {
	op := arg.(*probeOp)
	r := op.round
	if r.reported {
		return
	}
	if op.timedOut || op.d.faulty {
		r.reported = true
		r.owner.DiskProbe(false)
		return
	}
	if r.remaining--; r.remaining == 0 {
		r.reported = true
		r.owner.DiskProbe(true)
	}
}

func (d *Disk) serviceTime() time.Duration {
	t := d.mean
	if d.jitter > 0 {
		f := 1 - d.jitter + 2*d.jitter*d.rng.Float64()
		t = time.Duration(float64(d.mean) * f)
	}
	if d.degraded > 1 {
		t = time.Duration(float64(t) * d.degraded)
	}
	return t
}

// An operation in the array is its owner: the record that submitted it,
// which the array calls back directly and a snapshot names by reference
// (the owner's own section defines it; see snapshot.go). There is no
// second description of the continuation to keep in step with it.
type (
	// ReadOwner submitted a read and hears its completion.
	ReadOwner = interface{ DiskDone(ok bool) }
	// SpaceOwner waits for queue space and is told once when there is some.
	SpaceOwner = interface{ DiskSpace() }
	// ProbeOwner started a health check and hears its verdict.
	ProbeOwner = interface{ DiskProbe(healthy bool) }
)

type op struct {
	key   int
	owner ReadOwner
}

// readFunc adapts a completion closure to ReadOwner. No snapshot section
// describes it, so a capture taken while its read is in the array fails.
type readFunc func(ok bool)

func (f readFunc) DiskDone(ok bool) { f(ok) }

// Array is a node's disk subsystem: devices, helper threads, and the
// shared queue. Documents are placed on devices by key, as PRESS spreads
// its replicated document set across the local disks.
type Array struct {
	sim     *sim.Sim
	cfg     Config //availlint:skipfield cfg construction config, identical across forks
	disks   []*Disk
	queue   []op
	idle    int            // free helper threads
	blocked map[*Disk][]op // threads captured by a faulty device, with their ops
	onSpace []SpaceOwner
	// spaceSpare is the previous onSpace backing array, swapped back in
	// when finish drains the callbacks so steady-state NotifySpace
	// registration allocates nothing.
	spaceSpare []SpaceOwner //availlint:skipfield spaceSpare allocation-reuse spare; an empty spare after restore is behaviorally identical
	svcFree    []*svcOp     //availlint:skipfield svcFree free list; an empty list after restore is behaviorally identical
}

// svcOp carries one in-service read through the sim kernel's pooled
// argument timers, replacing a per-dispatch closure.
type svcOp struct {
	a *Array
	d *Disk
	o op
}

func (a *Array) getSvc() *svcOp {
	if n := len(a.svcFree); n > 0 {
		r := a.svcFree[n-1]
		a.svcFree[n-1] = nil
		a.svcFree = a.svcFree[:n-1]
		return r
	}
	return &svcOp{a: a}
}

func (a *Array) putSvc(r *svcOp) {
	r.d, r.o = nil, op{}
	a.svcFree = append(a.svcFree, r)
}

// svcDone is the service-completion callback for Array.start.
func svcDone(arg any) {
	r := arg.(*svcOp)
	a, d, o := r.a, r.d, r.o
	a.putSvc(r)
	if d.faulty {
		// Fault arrived mid-service: the thread is now stuck.
		a.blocked[d] = append(a.blocked[d], o)
		return
	}
	d.reads++
	a.finish()
	o.owner.DiskDone(true)
}

// NewArray builds the subsystem with n devices.
func NewArray(s *sim.Sim, rng *rand.Rand, cfg Config, n int) *Array {
	if n <= 0 {
		panic("simdisk: array needs at least one disk")
	}
	if cfg.MeanService <= 0 {
		cfg.MeanService = DefaultConfig().MeanService
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultConfig().QueueCap
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultConfig().Workers
	}
	a := &Array{sim: s, cfg: cfg, idle: cfg.Workers, blocked: make(map[*Disk][]op)}
	for i := 0; i < n; i++ {
		a.disks = append(a.disks, &Disk{sim: s, rng: rng, mean: cfg.MeanService, jitter: cfg.JitterFrac, arr: a})
	}
	return a
}

// Disks returns the member devices (for fault injection and probing).
func (a *Array) Disks() []*Disk { return a.disks }

// QueueLen reports the shared-queue backlog (excluding in-service ops).
func (a *Array) QueueLen() int { return len(a.queue) }

// Full reports whether a Read would be rejected right now.
func (a *Array) Full() bool { return a.idle == 0 && len(a.queue) >= a.cfg.QueueCap }

// ReadFor submits a read for the document with the given placement key.
// owner.DiskDone(true) runs after service (much later if the device is
// faulty and must be repaired first). ReadFor reports false — without
// accepting the operation — when the queue is full; the caller stalls and
// retries after NotifySpace, exactly like the PRESS main thread.
func (a *Array) ReadFor(key int, owner ReadOwner) bool {
	o := op{key: key, owner: owner}
	if a.idle > 0 {
		a.start(o)
		return true
	}
	if len(a.queue) >= a.cfg.QueueCap {
		return false
	}
	a.queue = append(a.queue, o)
	return true
}

// Read is ReadFor for a caller with a completion closure and no record.
func (a *Array) Read(key int, done func(ok bool)) bool {
	return a.ReadFor(key, readFunc(done))
}

// NotifySpace parks owner until the next time an operation could be
// accepted again, and tells it once.
func (a *Array) NotifySpace(owner SpaceOwner) {
	a.onSpace = append(a.onSpace, owner)
}

// AnyFaulty reports whether any device is faulty.
func (a *Array) AnyFaulty() bool {
	for _, d := range a.disks {
		if d.faulty {
			return true
		}
	}
	return false
}

// Probe health-checks every device: owner.DiskProbe(false) as soon as one
// reports unhealthy, DiskProbe(true) once all pass.
func (a *Array) Probe(timeout time.Duration, owner ProbeOwner) {
	r := &probeRound{remaining: len(a.disks), owner: owner}
	for _, d := range a.disks {
		d.probe(timeout, r)
	}
}

// start dispatches o on a free helper thread.
func (a *Array) start(o op) {
	d := a.disks[o.key%len(a.disks)]
	a.idle--
	if d.faulty {
		// The thread blocks on the hung device until repair.
		a.blocked[d] = append(a.blocked[d], o)
		return
	}
	r := a.getSvc()
	r.d, r.o = d, o
	a.sim.AfterArg(d.serviceTime(), svcDone, r)
}

// finish returns a thread to the pool and dispatches queued work.
func (a *Array) finish() {
	a.idle++
	for a.idle > 0 && len(a.queue) > 0 {
		next := a.queue[0]
		copy(a.queue, a.queue[1:])
		a.queue = a.queue[:len(a.queue)-1]
		a.start(next)
	}
	if !a.Full() && len(a.onSpace) > 0 {
		// Swap buffers so callbacks registering anew (the common retry
		// pattern) append into the spare array rather than a fresh one.
		cbs := a.onSpace
		a.onSpace = a.spaceSpare[:0]
		for i, w := range cbs {
			cbs[i] = nil
			w.DiskSpace()
		}
		a.spaceSpare = cbs[:0]
	}
}

// releaseBlocked restarts the ops whose threads were captured by d.
func (a *Array) releaseBlocked(d *Disk) {
	ops := a.blocked[d]
	if len(ops) == 0 {
		return
	}
	delete(a.blocked, d)
	for _, o := range ops {
		a.idle++ // thread released...
		a.startOrQueue(o)
	}
}

func (a *Array) startOrQueue(o op) {
	if a.idle > 0 {
		a.start(o)
		return
	}
	a.queue = append(a.queue, o) // may transiently exceed cap; drains immediately
}
