package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestNowStartsAtZero(t *testing.T) {
	s := New(1)
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New(1)
	var got []time.Duration
	for _, d := range []time.Duration{5 * time.Second, time.Second, 3 * time.Second, 2 * time.Second} {
		d := d
		s.After(d, func() { got = append(got, s.Now()) })
	}
	s.Run()
	want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second, 5 * time.Second}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEqualDeadlinesFireInSchedulingOrder(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Second, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("order %v, want ascending scheduling order", got)
		}
	}
}

func TestStopCancelsPendingEvent(t *testing.T) {
	s := New(1)
	fired := false
	e := s.After(time.Second, func() { fired = true })
	if !e.Stop() {
		t.Fatal("Stop on pending event returned false")
	}
	if e.Stop() {
		t.Fatal("second Stop returned true")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestStopAfterFireReturnsFalse(t *testing.T) {
	s := New(1)
	e := s.After(time.Second, func() {})
	s.Run()
	if e.Stop() {
		t.Fatal("Stop after fire returned true")
	}
}

func TestStopMiddleOfHeapPreservesOthers(t *testing.T) {
	s := New(1)
	var got []int
	var events []Timer
	for i := 0; i < 20; i++ {
		i := i
		events = append(events, s.After(time.Duration(i)*time.Second, func() { got = append(got, i) }))
	}
	// Cancel every third event.
	want := []int{}
	for i := range events {
		if i%3 == 1 {
			events[i].Stop()
		} else {
			want = append(want, i)
		}
	}
	s.Run()
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestRunUntilAdvancesClockExactly(t *testing.T) {
	s := New(1)
	fired := 0
	s.After(time.Second, func() { fired++ })
	s.After(10*time.Second, func() { fired++ })
	s.RunUntil(5 * time.Second)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s", s.Now())
	}
	s.Run()
	if fired != 2 || s.Now() != 10*time.Second {
		t.Fatalf("fired=%d Now=%v, want 2 and 10s", fired, s.Now())
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	s := New(1)
	fired := false
	s.After(5*time.Second, func() { fired = true })
	s.RunUntil(5 * time.Second)
	if !fired {
		t.Fatal("event at boundary did not fire")
	}
}

func TestEventReschedulingFromWithinHandler(t *testing.T) {
	s := New(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			s.After(time.Second, tick)
		}
	}
	s.After(time.Second, tick)
	s.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s", s.Now())
	}
}

func TestScheduleInPastClampsToNow(t *testing.T) {
	s := New(1)
	var at time.Duration = -1
	s.After(10*time.Second, func() {
		s.At(3*time.Second, func() { at = s.Now() })
	})
	s.Run()
	if at != 10*time.Second {
		t.Fatalf("past-scheduled event fired at %v, want 10s", at)
	}
}

func TestHaltStopsRun(t *testing.T) {
	s := New(1)
	fired := 0
	s.After(time.Second, func() { fired++; s.Halt() })
	s.After(2*time.Second, func() { fired++ })
	s.Run()
	if fired != 1 {
		t.Fatalf("fired = %d after Halt, want 1", fired)
	}
	s.Run()
	if fired != 2 {
		t.Fatalf("fired = %d after resume, want 2", fired)
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a := New(42).NewRand("x")
	b := New(42).NewRand("x")
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same (seed,label) streams diverged")
		}
	}
	c := New(42).NewRand("y")
	d := New(43).NewRand("x")
	same := true
	aa := New(42).NewRand("x")
	for i := 0; i < 8; i++ {
		v := aa.Int63()
		if c.Int63() != v || d.Int63() != v {
			same = false
		}
	}
	if same {
		t.Fatal("distinct labels/seeds produced identical streams")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []time.Duration {
		s := New(7)
		rng := s.NewRand("load")
		var fires []time.Duration
		var next func()
		next = func() {
			fires = append(fires, s.Now())
			if len(fires) < 50 {
				s.After(time.Duration(rng.Intn(1000))*time.Millisecond, next)
			}
		}
		s.After(0, next)
		s.Run()
		return fires
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any multiset of deadlines, events fire in sorted order and
// the clock never moves backwards.
func TestQuickOrderingInvariant(t *testing.T) {
	f := func(deadlines []uint16) bool {
		s := New(3)
		var fired []time.Duration
		last := time.Duration(-1)
		ok := true
		for _, d := range deadlines {
			s.After(time.Duration(d)*time.Millisecond, func() {
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
				fired = append(fired, s.Now())
			})
		}
		s.Run()
		if len(fired) != len(deadlines) {
			return false
		}
		want := make([]time.Duration, len(deadlines))
		for i, d := range deadlines {
			want[i] = time.Duration(d) * time.Millisecond
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: randomly interleaved schedule/cancel operations never corrupt
// the heap: every non-cancelled event fires exactly once, in order.
func TestQuickCancellationInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(seed)
		fired := map[int]int{}
		var events []Timer
		cancelled := map[int]bool{}
		n := 50 + rng.Intn(100)
		for i := 0; i < n; i++ {
			i := i
			events = append(events, s.After(time.Duration(rng.Intn(500))*time.Millisecond, func() { fired[i]++ }))
		}
		for i := range events {
			if rng.Intn(3) == 0 {
				if events[i].Stop() {
					cancelled[i] = true
				}
			}
		}
		s.Run()
		for i := 0; i < n; i++ {
			want := 1
			if cancelled[i] {
				want = 0
			}
			if fired[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPendingAndCounters(t *testing.T) {
	s := New(1)
	for i := 0; i < 10; i++ {
		s.After(time.Duration(i)*time.Second, func() {})
	}
	if s.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", s.Pending())
	}
	if s.MaxQueued() != 10 {
		t.Fatalf("MaxQueued = %d, want 10", s.MaxQueued())
	}
	s.Run()
	if s.Pending() != 0 || s.EventsFired() != 10 {
		t.Fatalf("Pending=%d EventsFired=%d, want 0/10", s.Pending(), s.EventsFired())
	}
}

// Cancel-during-dispatch: a firing event is no longer pending when its
// own callback runs, so self-Stop reports false; stopping a *different*
// pending event from inside a callback reports true and prevents it.
func TestStopFromInsideFiringCallback(t *testing.T) {
	s := New(1)
	var self Timer
	var selfStop, otherStop bool
	otherFired := false
	other := s.After(2*time.Second, func() { otherFired = true })
	self = s.After(time.Second, func() {
		selfStop = self.Stop()
		otherStop = other.Stop()
	})
	s.Run()
	if selfStop {
		t.Fatal("Stop on the firing event's own handle returned true")
	}
	if !otherStop {
		t.Fatal("Stop on another pending event from inside a callback returned false")
	}
	if otherFired {
		t.Fatal("event stopped from inside a callback still fired")
	}
	if self.Stop() || other.Stop() {
		t.Fatal("repeated Stop returned true")
	}
}

// A handle to a recycled record must not reach the record's next
// occupant, whatever either event's kind: the generation count makes the
// stale handle's Stop and record lookup report not pending, and the
// occupant fires.
func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	type arm func(s *Sim, at time.Duration, fired *bool) Timer
	closure := arm(func(s *Sim, at time.Duration, fired *bool) Timer {
		return s.At(at, func() { *fired = true })
	})
	withArg := arm(func(s *Sim, at time.Duration, fired *bool) Timer {
		return s.AtArg(at, func(a any) { *a.(*bool) = true }, fired)
	})
	for _, tc := range []struct {
		name       string
		busy       int // events pending beyond the test while the record recycles
		old, fresh arm
	}{
		{"closure reissued as AtArg", 0, closure, withArg},
		{"AtArg reissued as closure", 0, withArg, closure},
		{"record past the first chunk", chunkLen + 44, closure, withArg},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(1)
			for i := 0; i < tc.busy; i++ {
				s.AtArg(time.Hour, func(any) {}, nil)
			}
			var oldFired, freshFired bool
			old := tc.old(s, time.Second, &oldFired)
			s.RunUntil(time.Second) // fires; the record returns to the free list
			fresh := tc.fresh(s, 2*time.Second, &freshFired)
			if fresh.id != old.id || int(old.id) < tc.busy {
				t.Fatalf("old event in record %d, fresh in %d: want one record past the %d busy ones", old.id, fresh.id, tc.busy)
			}
			if old.Stop() {
				t.Error("stale Stop returned true")
			}
			if old.pending() != nil {
				t.Error("stale handle reported pending")
			}
			if fresh.pending() == nil {
				t.Error("fresh handle not pending")
			}
			s.RunUntil(2 * time.Second)
			if !oldFired || !freshFired {
				t.Errorf("old fired %v, fresh fired %v: want both", oldFired, freshFired)
			}
		})
	}
}

// Property: under random schedule/cancel interleavings, pops are totally
// ordered by (deadline, seq) — equal deadlines fire in scheduling order,
// and cancelled events are exactly the ones missing.
func TestQuickPopOrderIsDeadlineSeq(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(seed)
		type rec struct{ at time.Duration }
		var handles []Timer
		var scheduled []rec
		var fireOrder []int
		n := 30 + rng.Intn(120)
		for i := 0; i < n; i++ {
			i := i
			// Coarse buckets force plenty of equal deadlines.
			at := time.Duration(rng.Intn(20)) * time.Second
			handles = append(handles, s.At(at, func() { fireOrder = append(fireOrder, i) }))
			scheduled = append(scheduled, rec{at: at})
		}
		cancelled := map[int]bool{}
		for i := range handles {
			if rng.Intn(4) == 0 && handles[i].Stop() {
				cancelled[i] = true
			}
		}
		s.Run()
		// Expected order: survivors sorted by (deadline, scheduling seq);
		// scheduling order is index order here, so a stable sort by
		// deadline is exactly (deadline, seq).
		var want []int
		for i := 0; i < n; i++ {
			if !cancelled[i] {
				want = append(want, i)
			}
		}
		sort.SliceStable(want, func(a, b int) bool {
			return scheduled[want[a]].at < scheduled[want[b]].at
		})
		if len(fireOrder) != len(want) {
			return false
		}
		for i := range want {
			if fireOrder[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Steady-state pooling: a self-rearming periodic event with one-shot
// AfterArg events in flight must neither allocate per event nor grow the
// live event population.
func TestPoolReuseSteadyStateAllocFree(t *testing.T) {
	s := New(1)
	ticks := 0
	var tick func(any)
	tick = func(any) {
		ticks++
		s.AfterArg(time.Second, tick, nil)
	}
	s.AfterArg(time.Second, tick, nil)
	noop := func(any) {}
	s.AfterArg(500*time.Millisecond, noop, nil)
	s.RunUntil(10 * time.Second) // reach steady state
	base := s.Pending()
	allocs := testing.AllocsPerRun(100, func() {
		s.AfterArg(500*time.Millisecond, noop, nil)
		s.RunFor(10 * time.Second)
	})
	if allocs > 0.1 {
		t.Fatalf("steady-state periodic+one-shot workload allocates %.1f allocs/run, want ~0", allocs)
	}
	if s.Pending() != base {
		t.Fatalf("live events grew from %d to %d under steady-state load", base, s.Pending())
	}
	if ticks == 0 {
		t.Fatal("periodic event never fired")
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i%1000)*time.Microsecond, func() {})
		if i%1024 == 1023 {
			s.Run()
		}
	}
	s.Run()
}

// BenchmarkKernel is the raw event-loop baseline: 1,024 self-rescheduling
// one-shot AfterArg events, each re-armed uniformly 0–1 ms out, so a
// drained bucket holds about 67 entries in random order; pure kernel cost
// with the free list warm. Reports ns/event (allocs/op counts the whole
// loop; per-event cost is the headline metric).
func BenchmarkKernel(b *testing.B) {
	s := New(1)
	rng := s.NewRand("bench")
	// 1024 self-perpetuating events keep the heap realistically deep.
	var chain func(any)
	chain = func(any) {
		s.AfterArg(time.Duration(rng.Intn(1000))*time.Microsecond, chain, nil)
	}
	for i := 0; i < 1024; i++ {
		chain(nil)
	}
	start := s.EventsFired()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	b.StopTimer()
	fired := float64(s.EventsFired() - start)
	if fired > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/fired, "ns/event")
	}
}

// BenchmarkKernelStorm is the formation storm's shape: 65,280 events (N=256's
// N(N-1) Hellos) queued for one instant a millisecond out, so they wait in
// one wheel bucket, then drained. The bucket arrives in seq order, so its
// drain is one walk. Reports ns/event; the kernel is reused, so after the
// first iteration its records are minted.
func BenchmarkKernelStorm(b *testing.B) {
	const storm = 256 * 255
	s := New(1)
	fired := 0
	count := func(any) { fired++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := s.Now() + time.Millisecond
		for range storm {
			s.AtArg(at, count, nil)
		}
		s.Run()
	}
	b.StopTimer()
	if fired != b.N*storm {
		b.Fatalf("fired %d events, want %d", fired, b.N*storm)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(fired), "ns/event")
}

// BenchmarkKernelSparse is the 4-node campaigns' shape: about 2,000
// pending events, most of them timers seconds out, and a near future so
// thin that a drained bucket holds one or two entries. Each of 2,048
// chains re-arms when it fires: half the time about 50 µs out (a network
// hop), otherwise 0.2–6 ms out (a charge or a disk read) or 1–4 s out (a
// timeout or a ticker).
func BenchmarkKernelSparse(b *testing.B) {
	s := New(1)
	rng := s.NewRand("bench")
	var chain func(any)
	chain = func(any) {
		var d time.Duration
		switch k := rng.Intn(20); {
		case k < 10:
			d = 40*time.Microsecond + time.Duration(rng.Intn(20_000))
		case k < 17:
			d = 200*time.Microsecond + time.Duration(rng.Intn(5_800_000))
		default:
			d = time.Second + time.Duration(rng.Int63n(int64(3*time.Second)))
		}
		s.AfterArg(d, chain, nil)
	}
	for range 2048 {
		chain(nil)
	}
	s.RunFor(10 * time.Second) // past the first round of long timers
	start := s.EventsFired()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(s.EventsFired()-start), "ns/event")
}

// BenchmarkKernelStaggeredStorm is the formation storm as the links
// deliver it: N(N-1) deadlines at N=256, each sender's 255 rising by a
// serialization step of 1 µs from the sender's own start, so the four
// granules they fill hold long lists out of order (about 64 entries per
// 256 ns sub-granule). Reports ns/event.
func BenchmarkKernelStaggeredStorm(b *testing.B) {
	const n = 256
	s := New(1)
	fired := 0
	count := func(any) { fired++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := s.Now() + time.Millisecond
		for from := range n {
			start := at + time.Duration(from*7919%1000)
			for k := range n - 1 {
				s.AtArg(start+time.Duration(k)*time.Microsecond, count, nil)
			}
		}
		s.Run()
	}
	b.StopTimer()
	if fired != b.N*n*(n-1) {
		b.Fatalf("fired %d events, want %d", fired, b.N*n*(n-1))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(fired), "ns/event")
}
