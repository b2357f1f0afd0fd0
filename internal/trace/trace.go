// Package trace synthesizes the web workload the paper drives PRESS with.
//
// The paper replays a trace gathered at Rutgers, modified in two ways: all
// files are made the same size (for stable throughput, as the methodology
// requires) and the average size is raised to 27 KB so that misses still
// occur with five server nodes' worth of memory. We reproduce those
// properties directly: a catalog of N uniform-size documents with a
// generalized-Zipf popularity distribution whose exponent is chosen so
// that the working set comfortably exceeds one node's cache while the
// cluster's aggregate cache captures most of it — the regime in which
// cooperative caching buys the paper's 3x throughput factor.
package trace

import (
	"math"
	"math/rand"
)

// DocID identifies a document in the catalog. IDs are dense in [0, Docs)
// and double as the popularity rank (0 = most popular).
type DocID int32

// Catalog describes the synthetic document set.
type Catalog struct {
	Docs  int     // number of documents
	Size  int64   // uniform size of every document, bytes
	Alpha float64 // Zipf exponent; 0 = uniform popularity

	cdf []float64 // cdf[i] = P(rank <= i)
	// guide[b] is the first rank whose cdf reaches b/guideSize, so a draw
	// in bucket b lies between guide[b] and guide[b+1] and Sample searches
	// that handful of ranks instead of the whole cdf. 16 KB, built once by
	// NewCatalog and never written again: every server of a world shares
	// one Catalog.
	guide [guideSize + 1]uint32
}

// guideSize is a power of two, so a draw's bucket and the bucket's lower
// edge are both exact in floating point.
const guideSize = 4096

// DefaultDocs, DefaultSize and DefaultAlpha reproduce the paper's workload
// regime: 26 000 documents of 27 KB (≈702 MB total, so a 128 MB per-node
// cache holds ~19% of the set and a 4x128 MB cooperative cache ~75%), with
// a mildly skewed Zipf-0.35 popularity. In this regime the cooperative
// cache captures ~83% of requests while a single node's captures ~34%, so
// the independent version is hard disk-bound while the cooperative one is
// CPU-bound — the source of the paper's 3x cooperation speedup — and the
// cooperative version still misses with five nodes' worth of memory, as
// the paper arranged ("so that there are still misses when we use all 5
// server nodes").
const (
	DefaultDocs  = 26000
	DefaultSize  = 27 * 1024
	DefaultAlpha = 0.35
)

// NewCatalog builds a catalog and precomputes its popularity CDF.
func NewCatalog(docs int, size int64, alpha float64) *Catalog {
	if docs <= 0 {
		panic("trace: catalog needs at least one document")
	}
	if size <= 0 {
		panic("trace: non-positive document size")
	}
	if alpha < 0 {
		panic("trace: negative Zipf exponent")
	}
	c := &Catalog{Docs: docs, Size: size, Alpha: alpha, cdf: make([]float64, docs)}
	sum := 0.0
	for i := 0; i < docs; i++ {
		sum += math.Pow(float64(i+1), -alpha)
		c.cdf[i] = sum
	}
	inv := 1 / sum
	b := 0 // next guide bucket without its rank
	for i := range c.cdf {
		c.cdf[i] *= inv
		if i == docs-1 {
			c.cdf[i] = 1 // guard against rounding
		}
		for ; b <= guideSize && float64(b)/guideSize <= c.cdf[i]; b++ {
			c.guide[b] = uint32(i)
		}
	}
	return c
}

// Default returns the paper-regime catalog.
func Default() *Catalog { return NewCatalog(DefaultDocs, DefaultSize, DefaultAlpha) }

// Sample draws a document according to the popularity distribution.
func (c *Catalog) Sample(rng *rand.Rand) DocID {
	return c.rank(rng.Float64())
}

// rank returns the first rank whose cdf reaches u, for u in [0, 1): what
// sort.SearchFloat64s(c.cdf, u) returns, found inside u's guide bucket.
func (c *Catalog) rank(u float64) DocID {
	b := int(u * guideSize)
	lo, hi := int(c.guide[b]), int(c.guide[b+1])
	for lo < hi { // sort.Search's loop, over a handful of ranks
		if mid := int(uint(lo+hi) >> 1); c.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return DocID(lo)
}

// TotalBytes returns the size of the whole document set.
func (c *Catalog) TotalBytes() int64 { return int64(c.Docs) * c.Size }

// TopShare returns the fraction of requests that target the k most popular
// documents — i.e. the best-case hit rate of a cache holding k documents.
// The calibration tests use it to verify the COOP-vs-INDEP regime.
func (c *Catalog) TopShare(k int) float64 {
	if k <= 0 {
		return 0
	}
	if k >= c.Docs {
		return 1
	}
	return c.cdf[k-1]
}

// DocsFitting returns how many documents fit in a cache of the given size.
func (c *Catalog) DocsFitting(cacheBytes int64) int {
	n := int(cacheBytes / c.Size)
	if n > c.Docs {
		n = c.Docs
	}
	return n
}
