package simdisk

import (
	"testing"
	"time"

	"press/internal/sim"
)

func newArray(s *sim.Sim, cfg Config, n int) *Array {
	return NewArray(s, s.NewRand("disk"), cfg, n)
}

func cfg(svc time.Duration, cap, workers int) Config {
	return Config{MeanService: svc, JitterFrac: 0, QueueCap: cap, Workers: workers}
}

func TestReadCompletesAfterServiceTime(t *testing.T) {
	s := sim.New(1)
	a := newArray(s, cfg(10*time.Millisecond, 4, 2), 2)
	var done time.Duration = -1
	a.Read(0, func(ok bool) {
		if !ok {
			t.Error("read failed")
		}
		done = s.Now()
	})
	s.Run()
	if done != 10*time.Millisecond {
		t.Fatalf("completed at %v, want 10ms", done)
	}
	if a.Disks()[0].Reads() != 1 {
		t.Fatalf("Reads = %d", a.Disks()[0].Reads())
	}
}

func TestWorkersProvideParallelism(t *testing.T) {
	s := sim.New(1)
	a := newArray(s, cfg(10*time.Millisecond, 8, 2), 2)
	completions := 0
	for i := 0; i < 4; i++ {
		a.Read(i, func(bool) { completions++ })
	}
	s.Run()
	// 4 ops over 2 workers at 10ms each: 20ms total, not 40ms.
	if s.Now() != 20*time.Millisecond {
		t.Fatalf("4 ops on 2 workers finished at %v, want 20ms", s.Now())
	}
	if completions != 4 {
		t.Fatalf("completions = %d", completions)
	}
}

func TestQueueCapRejects(t *testing.T) {
	s := sim.New(1)
	a := newArray(s, cfg(time.Millisecond, 2, 1), 1)
	accepted := 0
	for i := 0; i < 10; i++ {
		if a.Read(i, func(bool) {}) {
			accepted++
		}
	}
	// 1 in service + 2 queued.
	if accepted != 3 {
		t.Fatalf("accepted %d, want 3", accepted)
	}
	if a.QueueLen() != 2 || !a.Full() {
		t.Fatalf("QueueLen=%d Full=%v", a.QueueLen(), a.Full())
	}
	s.Run()
}

// spaceFunc and probeFunc let a test wait for space or a verdict with a
// closure, as readFunc does for Array.Read.
type (
	spaceFunc func()
	probeFunc func(healthy bool)
)

func (f spaceFunc) DiskSpace()             { f() }
func (f probeFunc) DiskProbe(healthy bool) { f(healthy) }

func TestNotifySpaceFires(t *testing.T) {
	s := sim.New(1)
	a := newArray(s, cfg(time.Millisecond, 1, 1), 1)
	a.Read(0, func(bool) {})
	a.Read(0, func(bool) {})
	if a.Read(0, func(bool) {}) {
		t.Fatal("queue should be full")
	}
	notified := false
	a.NotifySpace(spaceFunc(func() { notified = true }))
	s.RunFor(1500 * time.Microsecond)
	if !notified {
		t.Fatal("NotifySpace did not fire after space freed")
	}
}

func TestFaultCapturesWorkersThenRepairReleases(t *testing.T) {
	s := sim.New(1)
	a := newArray(s, cfg(10*time.Millisecond, 8, 2), 2)
	a.Disks()[1].SetFaulty(true)
	completions := 0
	// Keys 1,3 land on the faulty disk and capture both workers; keys 0,2
	// then starve in the queue even though their device is healthy.
	for _, k := range []int{1, 3, 0, 2} {
		if !a.Read(k, func(ok bool) {
			if ok {
				completions++
			}
		}) {
			t.Fatal("read rejected unexpectedly")
		}
	}
	s.RunFor(10 * time.Second)
	if completions != 0 {
		t.Fatalf("%d completions while both workers captured, want 0", completions)
	}
	a.Disks()[1].SetFaulty(false)
	s.Run()
	if completions != 4 {
		t.Fatalf("completions after repair = %d, want 4", completions)
	}
}

func TestFaultMidServiceCapturesThread(t *testing.T) {
	s := sim.New(1)
	a := newArray(s, cfg(10*time.Millisecond, 8, 1), 1)
	completions := 0
	a.Read(0, func(bool) { completions++ })
	s.RunFor(5 * time.Millisecond)
	a.Disks()[0].SetFaulty(true)
	s.RunFor(time.Second)
	if completions != 0 {
		t.Fatal("completion despite mid-service fault")
	}
	a.Disks()[0].SetFaulty(false)
	s.Run()
	if completions != 1 {
		t.Fatalf("completions = %d after repair, want exactly 1", completions)
	}
}

func TestSingleFaultyDiskEventuallyWedgesArray(t *testing.T) {
	// The Figure 4 precondition: one bad device out of two captures all
	// helper threads and then the shared queue fills.
	s := sim.New(1)
	a := newArray(s, cfg(10*time.Millisecond, 4, 2), 2)
	a.Disks()[1].SetFaulty(true)
	rejected := false
	for i := 0; i < 20 && !rejected; i++ {
		if !a.Read(i, func(bool) {}) {
			rejected = true
		}
		s.RunFor(5 * time.Millisecond)
	}
	if !rejected {
		t.Fatal("array never filled despite a faulty device")
	}
	if !a.Full() {
		t.Fatal("Full() = false after rejection")
	}
}

func TestHealthyDiskUnaffectedByPeerFaultUntilThreadsCaptured(t *testing.T) {
	s := sim.New(1)
	a := newArray(s, cfg(10*time.Millisecond, 8, 2), 2)
	a.Disks()[1].SetFaulty(true)
	done0 := 0
	a.Read(0, func(bool) { done0++ }) // healthy device, one free worker
	s.RunFor(50 * time.Millisecond)
	if done0 != 1 {
		t.Fatal("healthy device stopped serving while one worker remained")
	}
}

func TestProbeHealthyAndFaulty(t *testing.T) {
	s := sim.New(1)
	a := newArray(s, cfg(5*time.Millisecond, 4, 2), 2)
	var got []bool
	a.Probe(2*time.Second, probeFunc(func(h bool) { got = append(got, h) }))
	s.Run()
	if len(got) != 1 || !got[0] {
		t.Fatalf("healthy probe = %v", got)
	}
	a.Disks()[0].SetFaulty(true)
	got = nil
	start := s.Now()
	a.Probe(2*time.Second, probeFunc(func(h bool) { got = append(got, h) }))
	s.Run()
	if len(got) != 1 || got[0] {
		t.Fatalf("faulty probe = %v", got)
	}
	if s.Now()-start != 2*time.Second {
		t.Fatalf("faulty probe latency %v, want timeout 2s", s.Now()-start)
	}
}

func TestProbeBypassesWedgedArray(t *testing.T) {
	s := sim.New(1)
	a := newArray(s, cfg(10*time.Millisecond, 1, 1), 2)
	a.Disks()[1].SetFaulty(true)
	a.Read(1, func(bool) {}) // captures the only worker
	a.Read(1, func(bool) {}) // fills the queue
	var got []bool
	a.Probe(time.Second, probeFunc(func(h bool) { got = append(got, h) }))
	s.RunFor(2 * time.Second)
	if len(got) != 1 || got[0] {
		t.Fatalf("probe through wedged array = %v, want unhealthy", got)
	}
	if !a.AnyFaulty() {
		t.Fatal("AnyFaulty = false")
	}
}

func TestReadsRouteByKey(t *testing.T) {
	s := sim.New(1)
	a := newArray(s, cfg(time.Millisecond, 8, 2), 2)
	a.Read(0, func(bool) {})
	a.Read(1, func(bool) {})
	s.Run()
	if a.Disks()[0].Reads() != 1 || a.Disks()[1].Reads() != 1 {
		t.Fatalf("reads split %d/%d, want 1/1", a.Disks()[0].Reads(), a.Disks()[1].Reads())
	}
}

func TestEmptyArrayPanics(t *testing.T) {
	s := sim.New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for empty array")
		}
	}()
	newArray(s, cfg(time.Millisecond, 1, 1), 0)
}
