package metrics

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"press/internal/snapio"
)

// heldPair builds a series of n one-second buckets and a copy held on the
// first k of them: the source a forked run would have kept whole, and
// what it keeps instead.
func heldPair(n, k int, seed int64) (src, held *Series, head []float64) {
	rng := rand.New(rand.NewSource(seed))
	src, held = NewSeries(time.Second), NewSeries(time.Second)
	for i := 0; i < n; i++ {
		v := float64(90 + rng.Intn(20))
		if i%37 == 0 {
			v = float64(rng.Intn(3)) // a dip, so StableAfter has work
		}
		src.Add(time.Duration(i)*time.Second+250*time.Millisecond, v)
		held.Add(time.Duration(i)*time.Second+250*time.Millisecond, v)
	}
	head = slices.Clone(src.Buckets()[:k])
	held.Hold(head)
	return src, held, head
}

// TestHeldSeriesReadsAsItsSource: a held series answers every reader
// exactly as the series it was made from, over windows on both sides of
// the head boundary and across it.
func TestHeldSeriesReadsAsItsSource(t *testing.T) {
	for _, k := range []int{0, 1, 40, 99, 100} {
		src, held, _ := heldPair(100, k, int64(k))
		if held.Len() != src.Len() {
			t.Fatalf("k=%d: Len %d, source %d", k, held.Len(), src.Len())
		}
		if !slices.Equal(held.Buckets(), src.Buckets()) {
			t.Fatalf("k=%d: Buckets differ", k)
		}
		if held.CSV() != src.CSV() {
			t.Fatalf("k=%d: CSV differs", k)
		}
		for ms := -1500; ms < 102_000; ms += 250 {
			at := time.Duration(ms) * time.Millisecond
			if held.At(at) != src.At(at) {
				t.Fatalf("k=%d: At(%v) = %v, source %v", k, at, held.At(at), src.At(at))
			}
		}
		for from := -2; from < 103; from += 3 {
			for to := from - 1; to < 104; to += 7 {
				f, e := time.Duration(from)*time.Second, time.Duration(to)*time.Second+time.Duration(from%2)*500*time.Millisecond
				if held.Sum(f, e) != src.Sum(f, e) || held.MeanRate(f, e) != src.MeanRate(f, e) {
					t.Fatalf("k=%d: Sum/MeanRate over [%v, %v) differ", k, f, e)
				}
			}
			for _, window := range []int{1, 5, 8} {
				ht, hok := StableAfter(held, time.Duration(from)*time.Second, window, 0.12)
				st, sok := StableAfter(src, time.Duration(from)*time.Second, window, 0.12)
				if ht != st || hok != sok {
					t.Fatalf("k=%d: StableAfter(%ds, %d) = %v %v, source %v %v", k, from, window, ht, hok, st, sok)
				}
			}
		}
	}
}

// TestHeldSeriesSharesItsHead: the head is the caller's array, not a copy,
// and the series keeps its own copy of only the buckets after it.
func TestHeldSeriesSharesItsHead(t *testing.T) {
	src, a, head := heldPair(100, 60, 1)
	b := NewSeries(time.Second)
	for i, v := range src.Buckets() {
		b.Add(time.Duration(i)*time.Second, v)
	}
	b.Hold(head)
	for _, s := range []*Series{a, b} {
		if &s.head[0] != &head[0] {
			t.Fatal("a held series copied its head")
		}
		if len(s.buckets) != 40 {
			t.Fatalf("a held series keeps %d own buckets, want 40", len(s.buckets))
		}
	}
}

// TestHeldSeriesCaptureInsideBucket: a capture instant inside a bucket
// leaves that bucket in the tail, where the run that continued from the
// capture added to it.
func TestHeldSeriesCaptureInsideBucket(t *testing.T) {
	capture := 30*time.Second + 400*time.Millisecond
	warm := NewSeries(time.Second)
	for at := time.Duration(0); at < capture; at += 100 * time.Millisecond {
		warm.Add(at, 1)
	}
	head := slices.Clone(warm.Buckets()[:int(capture/warm.Width)])
	for _, extra := range []float64{3, 7} {
		fork := NewSeries(time.Second)
		for i, v := range warm.Buckets() {
			fork.Add(time.Duration(i)*time.Second, v)
		}
		fork.Add(capture, extra)
		fork.Add(capture+5*time.Second, extra)
		want := slices.Clone(fork.Buckets())
		fork.Hold(head)
		if !slices.Equal(fork.Buckets(), want) {
			t.Fatalf("extra %v: held %v, want %v", extra, fork.Buckets(), want)
		}
		if got := fork.At(capture); got != 4+extra {
			t.Fatalf("extra %v: the capture's bucket reads %v, want %v", extra, got, 4+extra)
		}
		if len(fork.buckets) != 6 || fork.buckets[0] != 4+extra {
			t.Fatalf("extra %v: own buckets %v, want the capture's bucket first and 6 in all", extra, fork.buckets)
		}
	}
}

// TestHeldSeriesRefusesAdd: a held series is read-only, and Hold refuses
// a head its series does not begin with.
func TestHeldSeriesRefusesAdd(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		fn()
	}
	_, held, head := heldPair(50, 20, 2)
	mustPanic("Add after the head", func() { held.Add(45*time.Second, 1) })
	mustPanic("Add inside the head", func() { held.Add(3*time.Second, 1) })
	mustPanic("a second Hold", func() { held.Hold(head) })
	_, cold, _ := heldPair(50, 0, 2)
	mustPanic("Add on a series held without a head", func() { cold.Add(time.Second, 1) })
	other := NewSeries(time.Second)
	other.Add(0, 1)
	mustPanic("Hold on a head the series does not begin with", func() { other.Hold([]float64{2}) })
	mustPanic("Hold on a head longer than the series", func() { other.Hold([]float64{1, 0}) })
}

// TestHeldSeriesSnapsWhole: a held series' walk writes the whole bucket
// list, head then tail, byte for byte what its source writes, and loads
// as a series of its own that takes Adds.
func TestHeldSeriesSnapsWhole(t *testing.T) {
	src, held, _ := heldPair(80, 50, 3)
	save := func(s *Series) []byte {
		x := &snapio.Ctx{Enc: &snapio.Encoder{}}
		s.SnapState(x)
		return x.Enc.Bytes()
	}
	blob := save(held)
	if !slices.Equal(blob, save(src)) {
		t.Fatal("a held series saves different bytes from its source")
	}
	if held.Len() != 80 || len(held.buckets) != 30 {
		t.Fatal("saving changed the held series")
	}
	var back Series
	x := &snapio.Ctx{Dec: snapio.NewDecoder(blob)}
	back.SnapState(x)
	if err := x.Dec.Err(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(back.Buckets(), src.Buckets()) || back.held || back.head != nil {
		t.Fatal("a loaded series is not its source's own plain copy")
	}
	back.Add(85*time.Second, 1)
	if back.Len() != 86 {
		t.Fatalf("a loaded series took an Add to length %d, want 86", back.Len())
	}
}
