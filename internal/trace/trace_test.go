package trace

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSampleInRange(t *testing.T) {
	c := NewCatalog(100, 27*1024, 0.8)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		d := c.Sample(rng)
		if d < 0 || int(d) >= c.Docs {
			t.Fatalf("sample %d out of range", d)
		}
	}
}

func TestSampleDeterministic(t *testing.T) {
	c := Default()
	a := rand.New(rand.NewSource(9))
	b := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		if c.Sample(a) != c.Sample(b) {
			t.Fatal("same-seed sampling diverged")
		}
	}
}

func TestPopularityMonotone(t *testing.T) {
	c := NewCatalog(1000, 1024, 1.0)
	rng := rand.New(rand.NewSource(2))
	counts := make([]int, c.Docs)
	for i := 0; i < 200000; i++ {
		counts[c.Sample(rng)]++
	}
	// Rank 0 must be sampled much more often than rank 500 under alpha=1.
	if counts[0] < 5*counts[500] {
		t.Fatalf("popularity not skewed: counts[0]=%d counts[500]=%d", counts[0], counts[500])
	}
}

func TestUniformAlphaZero(t *testing.T) {
	c := NewCatalog(10, 1024, 0)
	for k := 1; k <= 10; k++ {
		want := float64(k) / 10
		if got := c.TopShare(k); math.Abs(got-want) > 1e-9 {
			t.Fatalf("TopShare(%d) = %v, want %v", k, got, want)
		}
	}
}

func TestTopShareMatchesEmpirical(t *testing.T) {
	c := NewCatalog(5000, 1024, 0.35)
	rng := rand.New(rand.NewSource(3))
	const n = 300000
	k := 1000
	hits := 0
	for i := 0; i < n; i++ {
		if int(c.Sample(rng)) < k {
			hits++
		}
	}
	got := float64(hits) / n
	want := c.TopShare(k)
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("empirical top-%d share %v, analytic %v", k, got, want)
	}
}

func TestDefaultRegime(t *testing.T) {
	// The working-set regime the reproduction depends on (see package doc):
	// one node's cache must capture well under half the requests' bytes,
	// the 4-node cooperative cache most of them.
	c := Default()
	perNode := c.DocsFitting(128 << 20)
	cluster := c.DocsFitting(4 * (128 << 20))
	single := c.TopShare(perNode)
	coop := c.TopShare(cluster)
	if coop >= 1 {
		t.Fatal("no misses at 4 nodes; the paper arranged for misses to remain")
	}
	if c.TotalBytes() <= 4*(128<<20) {
		t.Fatalf("document set (%d bytes) fits in cluster memory", c.TotalBytes())
	}
	// The miss-rate ratio drives the 3x cooperation speedup: INDEP must
	// miss at least ~4x more often than COOP.
	if ratio := (1 - single) / (1 - coop); ratio < 3 {
		t.Fatalf("miss ratio %.2f too small for the 3x regime (single=%.3f coop=%.3f)", ratio, single, coop)
	}
	// With 5 nodes (the FE-X configurations) misses must still remain.
	if five := c.TopShare(c.DocsFitting(5 * (128 << 20))); five >= 1 {
		t.Fatal("no misses at 5 nodes")
	}
	// 8 nodes at 128 MB each cache the entire set — the effect behind the
	// paper's Figure 9(a) observation.
	if eight := c.TopShare(c.DocsFitting(8 * (128 << 20))); eight < 1 {
		t.Fatalf("8x128MB should cache everything, TopShare=%v", eight)
	}
}

func TestDocsFitting(t *testing.T) {
	c := NewCatalog(100, 1000, 0.5)
	if got := c.DocsFitting(5000); got != 5 {
		t.Fatalf("DocsFitting = %d, want 5", got)
	}
	if got := c.DocsFitting(1 << 40); got != 100 {
		t.Fatalf("DocsFitting clamped = %d, want 100", got)
	}
}

func TestTopShareEdges(t *testing.T) {
	c := NewCatalog(10, 1024, 0.7)
	if c.TopShare(0) != 0 {
		t.Fatal("TopShare(0) != 0")
	}
	if c.TopShare(10) != 1 || c.TopShare(50) != 1 {
		t.Fatal("TopShare full catalog != 1")
	}
}

func TestPanicsOnBadArgs(t *testing.T) {
	for _, tc := range []func(){
		func() { NewCatalog(0, 1024, 1) },
		func() { NewCatalog(10, 0, 1) },
		func() { NewCatalog(10, 1024, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic on invalid catalog")
				}
			}()
			tc()
		}()
	}
}

// Property: the CDF-backed TopShare is monotonically non-decreasing and
// bounded by [0,1] for any catalog shape.
func TestQuickTopShareMonotone(t *testing.T) {
	f := func(docs uint8, alphaTenths uint8) bool {
		n := int(docs)%500 + 2
		alpha := float64(alphaTenths%30) / 10
		c := NewCatalog(n, 1024, alpha)
		prev := 0.0
		for k := 0; k <= n; k++ {
			s := c.TopShare(k)
			if s < prev-1e-12 || s < 0 || s > 1+1e-12 {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The guide table only narrows the search: for every draw, at every
// catalog size the repository uses (and the degenerate ones), Sample names
// the document a binary search of the whole cdf names.
func TestSampleMatchesFullSearch(t *testing.T) {
	for _, docs := range []int{1, 7, 500, 6500, 26000} {
		for _, alpha := range []float64{0, DefaultAlpha, 1.2} {
			c := NewCatalog(docs, DefaultSize, alpha)
			// Bucket edges and their neighbours first: where an off-by-one
			// in the guide would show.
			for b := 0; b < guideSize; b++ {
				edge := float64(b) / guideSize
				for _, u := range []float64{edge, math.Nextafter(edge, 1), math.Nextafter(float64(b+1)/guideSize, 0)} {
					checkRank(t, c, u)
				}
			}
			draws := 1 << 16
			if alpha == DefaultAlpha && !testing.Short() {
				draws = 1 << 20 // the skew every experiment runs at
			}
			rng := rand.New(rand.NewSource(int64(docs)))
			for i := 0; i < draws; i++ {
				checkRank(t, c, rng.Float64())
			}
			// Every cdf value is itself a draw that must land on its rank.
			for _, u := range c.cdf {
				if u < 1 {
					checkRank(t, c, u)
					checkRank(t, c, math.Nextafter(u, 1))
				}
			}
		}
	}
}

func checkRank(t *testing.T, c *Catalog, u float64) {
	t.Helper()
	want := sort.SearchFloat64s(c.cdf, u)
	if got := c.rank(u); int(got) != want {
		t.Fatalf("docs=%d alpha=%v: rank(%v) = %d, full search says %d", c.Docs, c.Alpha, u, got, want)
	}
}
