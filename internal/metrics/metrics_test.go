package metrics

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSeriesAddAndAt(t *testing.T) {
	s := NewSeries(time.Second)
	s.Add(0, 1)
	s.Add(500*time.Millisecond, 2)
	s.Add(time.Second, 5)
	if got := s.At(0); got != 3 {
		t.Fatalf("At(0) = %v, want 3", got)
	}
	if got := s.At(1500 * time.Millisecond); got != 5 {
		t.Fatalf("At(1.5s) = %v, want 5", got)
	}
	if got := s.At(10 * time.Second); got != 0 {
		t.Fatalf("At(10s) = %v, want 0", got)
	}
}

func TestSeriesNegativeClamps(t *testing.T) {
	s := NewSeries(time.Second)
	s.Add(-time.Second, 4)
	if got := s.At(0); got != 4 {
		t.Fatalf("At(0) = %v, want 4", got)
	}
}

func TestSeriesSumWindow(t *testing.T) {
	s := NewSeries(time.Second)
	for i := 0; i < 10; i++ {
		s.Add(time.Duration(i)*time.Second, 1)
	}
	if got := s.Sum(2*time.Second, 5*time.Second); got != 3 {
		t.Fatalf("Sum[2,5) = %v, want 3", got)
	}
	if got := s.Sum(0, 100*time.Second); got != 10 {
		t.Fatalf("Sum all = %v, want 10", got)
	}
	if got := s.Sum(5*time.Second, 5*time.Second); got != 0 {
		t.Fatalf("empty window = %v, want 0", got)
	}
}

func TestMeanRate(t *testing.T) {
	s := NewSeries(time.Second)
	for i := 0; i < 10; i++ {
		s.Add(time.Duration(i)*time.Second, 50)
	}
	if got := s.MeanRate(0, 10*time.Second); got != 50 {
		t.Fatalf("MeanRate = %v, want 50", got)
	}
}

func TestSeriesPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero width")
		}
	}()
	NewSeries(0)
}

func TestCSV(t *testing.T) {
	s := NewSeries(time.Second)
	s.Add(0, 1)
	s.Add(time.Second, 2)
	csv := s.CSV()
	if !strings.Contains(csv, "0,1.00") || !strings.Contains(csv, "1,2.00") {
		t.Fatalf("unexpected CSV:\n%s", csv)
	}
}

func TestStableAfterFindsPlateau(t *testing.T) {
	s := NewSeries(time.Second)
	// Ramp for 10s, then flat at 100.
	for i := 0; i < 10; i++ {
		s.Add(time.Duration(i)*time.Second, float64(i*10))
	}
	for i := 10; i < 30; i++ {
		s.Add(time.Duration(i)*time.Second, 100)
	}
	at, ok := StableAfter(s, 0, 5, 0.05)
	if !ok {
		t.Fatal("no stable window found")
	}
	if at < 6*time.Second || at > 10*time.Second {
		t.Fatalf("stable at %v, want ~8-10s", at)
	}
}

func TestStableAfterZeroPlateau(t *testing.T) {
	s := NewSeries(time.Second)
	for i := 0; i < 5; i++ {
		s.Add(time.Duration(i)*time.Second, 200)
	}
	for i := 5; i < 20; i++ {
		s.Add(time.Duration(i)*time.Second, float64(i%2)) // near-zero noise
	}
	at, ok := StableAfter(s, 5*time.Second, 5, 0.05)
	if !ok {
		t.Fatal("zero plateau not detected as stable")
	}
	if at != 5*time.Second {
		t.Fatalf("stable at %v, want 5s", at)
	}
}

func TestStableAfterNoPlateau(t *testing.T) {
	s := NewSeries(time.Second)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 30; i++ {
		s.Add(time.Duration(i)*time.Second, float64(rng.Intn(1000)))
	}
	if at, ok := StableAfter(s, 0, 8, 0.01); ok {
		t.Fatalf("found spurious stability at %v", at)
	}
}

// Property: Sum over the whole series equals the sum of everything added.
func TestQuickSumConservation(t *testing.T) {
	f := func(vals []uint8, offsets []uint16) bool {
		s := NewSeries(time.Second)
		var want float64
		for i, v := range vals {
			off := time.Duration(0)
			if len(offsets) > 0 {
				off = time.Duration(offsets[i%len(offsets)]) * time.Millisecond
			}
			s.Add(off, float64(v))
			want += float64(v)
		}
		return s.Sum(0, time.Duration(len(vals)+100)*time.Hour) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// emit is the tests' by-name emit: intern, then EmitID.
func emit(l *Log, at time.Duration, source string, kind KindID, node int, detail string) {
	l.EmitID(at, InternSource(source), kind, node, detail)
}

func TestEventLogFirstAndCount(t *testing.T) {
	var l Log
	emit(&l, 1*time.Second, "injector", KFaultInject, 2, "scsi")
	emit(&l, 5*time.Second, "press", KDetect, 2, "heartbeat loss")
	emit(&l, 9*time.Second, "press", KDetect, 2, "again")
	e, ok := l.Query().Kind(KDetect).First()
	if !ok || e.At != 5*time.Second || e.Node != 2 {
		t.Fatalf("First = %+v ok=%v", e, ok)
	}
	if _, ok := l.Query().Kind(KDetect).After(6 * time.Second).First(); !ok {
		t.Fatal("First with after failed")
	}
	if _, ok := l.Query().Kind(InternKind("missing")).First(); ok {
		t.Fatal("found a kind nothing emitted")
	}
	if n := l.Query().Kind(KDetect).Count(); n != 2 {
		t.Fatalf("Count = %d, want 2", n)
	}
	if n := l.Query().Kind(KDetect).Between(6*time.Second, 20*time.Second).Count(); n != 1 {
		t.Fatalf("Count windowed = %d, want 1", n)
	}
}

func TestEventLogQuery(t *testing.T) {
	var l Log
	press, fme3 := InternSource("press"), InternSource("fme/3")
	emit(&l, 1*time.Second, "injector", KFaultInject, 2, "scsi")
	emit(&l, 5*time.Second, "press", KDetect, 2, "heartbeat loss")
	emit(&l, 9*time.Second, "fme/3", KDetect, 3, "probe")
	emit(&l, 9*time.Second, "fme/3", KFMEAction, 3, "restart")

	if n := l.Query().Source(press).Count(); n != 1 {
		t.Fatalf("Source Count = %d, want 1", n)
	}
	if n := l.Query().Kind(KDetect).Count(); n != 2 {
		t.Fatalf("Kind Count = %d, want 2", n)
	}
	if n := l.Query().Source(fme3).Kind(KDetect).Count(); n != 1 {
		t.Fatalf("Source+Kind Count = %d, want 1", n)
	}
	// Between is [t0, t1): the 9 s events fall outside [1 s, 9 s).
	if n := l.Query().Between(time.Second, 9*time.Second).Count(); n != 2 {
		t.Fatalf("Between Count = %d, want 2", n)
	}
	if e, ok := l.Query().Kind(KDetect).Node(3).First(); !ok || e.Source != fme3 {
		t.Fatalf("Node-filtered First = %+v ok=%v", e, ok)
	}
	if _, ok := l.Query().Kind(KDetect).After(10 * time.Second).First(); ok {
		t.Fatal("After past the last event still matched")
	}
	evs := l.Query().Source(fme3).Events()
	if len(evs) != 2 || evs[0].Kind != KDetect || evs[1].Kind != KFMEAction {
		t.Fatalf("Events = %+v, want detect then action in emission order", evs)
	}
	if e, ok := l.Query().FirstWhere(func(e Event) bool {
		return e.Kind == KFMEAction || e.Kind == KFaultInject
	}); !ok || e.Kind != KFaultInject {
		t.Fatalf("FirstWhere = %+v ok=%v, want the 1s inject", e, ok)
	}
}

func TestEventLogFirstMatch(t *testing.T) {
	var l Log
	emit(&l, 1*time.Second, "a", KExclude, 1, "")
	emit(&l, 2*time.Second, "b", KExclude, 3, "")
	e, ok := l.Query().FirstWhere(func(e Event) bool { return e.Node == 3 })
	if !ok || e.Source.String() != "b" {
		t.Fatalf("FirstWhere = %+v ok=%v", e, ok)
	}
}

func TestEventLogDump(t *testing.T) {
	var l Log
	emit(&l, time.Second, "press", KSplinter, -1, "sets {0,1,2} {3}")
	out := l.Dump()
	if !strings.Contains(out, "splinter") || !strings.Contains(out, "press") {
		t.Fatalf("Dump missing fields:\n%s", out)
	}
}

// TestFixedKindsRoundTrip pins the vocabulary: every fixed kind and source
// prints as the name goldens and repro files hold, interning that name
// gives the ID back, and an event renders in the one line format.
func TestFixedKindsRoundTrip(t *testing.T) {
	want := []string{"fault.inject", "fault.repair", "detect", "exclude", "include", "operator.reset",
		"server.up", "server.down", "fme.action", "splinter", "qmon.reroute", "qmon.fail",
		"member.join", "member.leave", "frontend.mask", "frontend.unmask"}
	if len(want) != int(numFixedKinds) {
		t.Fatalf("%d fixed kinds, the test names %d", numFixedKinds, len(want))
	}
	for k := KindID(0); k < numFixedKinds; k++ {
		if k.String() != want[k] {
			t.Errorf("kind %d prints %q, want %q", k, k, want[k])
		}
		if got := InternKind(want[k]); got != k {
			t.Errorf("InternKind(%q) = %d, want the fixed %d", want[k], got, k)
		}
	}
	for s, name := range []string{"machine", "injector", "frontend", "operator"} {
		if SourceID(s).String() != name || InternSource(name) != SourceID(s) {
			t.Errorf("source %d prints %q and %q interns as %d", s, SourceID(s), name, InternSource(name))
		}
	}
	own := InternKind("test.own-kind")
	if own < numFixedKinds || own.String() != "test.own-kind" || InternKind("test.own-kind") != own {
		t.Errorf("an interned kind got id %d, prints %q", own, own)
	}
	e := Event{At: 1500 * time.Millisecond, Source: SrcInjector, Kind: KFaultInject, Node: 2, Detail: "scsi"}
	if got, want := e.String(), "     1.50s injector   fault.inject           node=2  scsi"; got != want {
		t.Errorf("Event.String() = %q, want %q", got, want)
	}
}
