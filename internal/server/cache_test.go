package server

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"press/internal/cnet"
	"press/internal/trace"
)

func TestDocCacheLRUEviction(t *testing.T) {
	c := newDocCache(3)
	for d := trace.DocID(0); d < 3; d++ {
		if _, ev := c.Insert(d); ev {
			t.Fatal("eviction before capacity")
		}
	}
	// Touch 0 so 1 becomes LRU.
	if !c.Has(0) {
		t.Fatal("miss on cached doc")
	}
	evicted, did := c.Insert(3)
	if !did || evicted != 1 {
		t.Fatalf("evicted %v (did=%v), want 1", evicted, did)
	}
	if c.Peek(1) {
		t.Fatal("evicted doc still present")
	}
	if !c.Peek(0) || !c.Peek(2) || !c.Peek(3) {
		t.Fatal("wrong survivors")
	}
}

func TestDocCacheReinsertRefreshes(t *testing.T) {
	c := newDocCache(2)
	c.Insert(1)
	c.Insert(2)
	if _, did := c.Insert(1); did {
		t.Fatal("reinsert evicted")
	}
	// 2 is now LRU.
	if ev, _ := c.Insert(3); ev != 2 {
		t.Fatalf("evicted %v, want 2", ev)
	}
}

func TestDocCacheDocsOrder(t *testing.T) {
	c := newDocCache(3)
	c.Insert(1)
	c.Insert(2)
	c.Insert(3)
	docs := c.Docs()
	if len(docs) != 3 || docs[0] != 3 || docs[2] != 1 {
		t.Fatalf("Docs = %v, want MRU-first", docs)
	}
}

// sliceLRU is the reference the cache is held to: its documents, most
// recent first, in a plain slice.
type sliceLRU struct {
	cap  int
	docs []trace.DocID
}

func (l *sliceLRU) touch(d trace.DocID) bool {
	i := slices.Index(l.docs, d)
	if i < 0 {
		return false
	}
	copy(l.docs[1:i+1], l.docs[:i])
	l.docs[0] = d
	return true
}

func (l *sliceLRU) insert(d trace.DocID) (evicted trace.DocID, didEvict bool) {
	if l.touch(d) {
		return 0, false
	}
	if len(l.docs) == l.cap {
		evicted, didEvict = l.docs[len(l.docs)-1], true
		l.docs = l.docs[:len(l.docs)-1]
	}
	l.docs = slices.Insert(l.docs, 0, d)
	return evicted, didEvict
}

// sharedHomes returns n documents whose home is the last slot of every
// index up to 256 slots long, so their run wraps past the end of the
// table, and n whose home is slot 0, where the wrapped run lands.
func sharedHomes(n int) []trace.DocID {
	probe := newDocCache(128)
	probe.fit(128) // 256 slots: a home's top 8 bits fix its home in every shorter table
	var last, first []trace.DocID
	for d := trace.DocID(0); len(last) < n || len(first) < n; d++ {
		switch h := probe.home(d); {
		case h == 255 && len(last) < n:
			last = append(last, d)
		case h == 0 && len(first) < n:
			first = append(first, d)
		}
	}
	return append(last, first...)
}

// Property: over any sequence of Insert, Has and Peek, the cache evicts the
// same documents and lists them in the same order as the slice LRU — the
// order a Hello and the snapshot walk write. That also bounds it by its
// capacity, and its index stays at most half full. It holds for catalog
// documents, for documents that share home slots (with a run that wraps
// past the end of the table), and for ids no catalog has.
func TestQuickDocCacheBounded(t *testing.T) {
	var catalog, outside []trace.DocID
	for d := range trace.DocID(40) {
		catalog = append(catalog, d)
	}
	for d := range trace.DocID(20) {
		outside = append(outside, -1-d, math.MaxInt32-d)
	}
	for _, alphabet := range []struct {
		name string
		docs []trace.DocID
	}{
		{"catalog", catalog},
		{"shared-homes", sharedHomes(20)},
		{"outside-catalog", outside},
	} {
		t.Run(alphabet.name, func(t *testing.T) {
			checkAgainstSliceLRU(t, alphabet.docs)
		})
	}
}

func checkAgainstSliceLRU(t *testing.T, alphabet []trace.DocID) {
	f := func(ops []uint16, capSeed uint8) bool {
		capDocs := int(capSeed)%20 + 1
		c, ref := newDocCache(capDocs), &sliceLRU{cap: capDocs}
		for _, op := range ops {
			d := alphabet[int(op/3)%len(alphabet)]
			switch op % 3 {
			case 0:
				ev, did := c.Insert(d)
				if rev, rdid := ref.insert(d); ev != rev || did != rdid {
					return false
				}
			case 1:
				if c.Has(d) != ref.touch(d) {
					return false
				}
			case 2:
				if c.Peek(d) != slices.Contains(ref.docs, d) {
					return false
				}
			}
			if !slices.Equal(c.Docs(), ref.docs) || 2*(len(c.ents)-1) > len(c.index) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectorySetAndHolders(t *testing.T) {
	nodes := []cnet.NodeID{0, 1, 2, 3}
	d := newDirectory(nodes, 100)
	d.Set(1, 7, true)
	d.Set(3, 7, true)
	holders := d.Holders(7, nodes)
	if len(holders) != 2 || holders[0] != 1 || holders[1] != 3 {
		t.Fatalf("holders = %v", holders)
	}
	// Candidates filter.
	holders = d.Holders(7, []cnet.NodeID{0, 3})
	if len(holders) != 1 || holders[0] != 3 {
		t.Fatalf("filtered holders = %v", holders)
	}
	d.Set(1, 7, false)
	if h := d.Holders(7, nodes); len(h) != 1 {
		t.Fatalf("after clear: %v", h)
	}
}

func TestDirectoryDropNode(t *testing.T) {
	nodes := []cnet.NodeID{0, 1}
	d := newDirectory(nodes, 100)
	d.Set(0, 1, true)
	d.Set(1, 1, true)
	d.Set(1, 2, true)
	d.DropNode(1)
	if h := d.Holders(1, nodes); len(h) != 1 || h[0] != 0 {
		t.Fatalf("holders after drop: %v", h)
	}
	if h := d.Holders(2, nodes); len(h) != 0 {
		t.Fatalf("doc 2 holders after drop: %v", h)
	}
	if d.Entries() != 1 {
		t.Fatalf("Entries = %d", d.Entries())
	}
}

func TestDirectoryUnknownNodeIgnored(t *testing.T) {
	d := newDirectory([]cnet.NodeID{0, 1}, 100)
	d.Set(99, 5, true) // not in the static node list
	if h := d.Holders(5, []cnet.NodeID{0, 1, 99}); len(h) != 0 {
		t.Fatalf("unknown node recorded: %v", h)
	}
	d.DropNode(99) // must not panic
}

// Property: Holders never returns a node whose last Set for that doc was
// false, under any interleaving.
func TestQuickDirectoryConsistency(t *testing.T) {
	nodes := []cnet.NodeID{0, 1, 2, 3, 4, 5, 6, 7}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := newDirectory(nodes, 100)
		last := map[[2]int]bool{}
		for i := 0; i < 200; i++ {
			n := cnet.NodeID(rng.Intn(8))
			doc := trace.DocID(rng.Intn(20))
			cached := rng.Intn(2) == 0
			d.Set(n, doc, cached)
			last[[2]int{int(n), int(doc)}] = cached
		}
		for doc := trace.DocID(0); doc < 20; doc++ {
			for _, h := range d.Holders(doc, nodes) {
				if !last[[2]int{int(h), int(doc)}] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDiskKeySpreadsAcrossDisks(t *testing.T) {
	// Ownership uses doc mod viewsize; disk placement must not alias with
	// it (the bug class this guards: node i's documents all landing on
	// one disk).
	counts := [2]int{}
	for doc := trace.DocID(1); doc < 1000; doc += 4 { // node 1's docs in a 4-view
		counts[diskKey(doc)%2]++
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("disk placement aliases ownership: %v", counts)
	}
}

// BenchmarkDocCache measures the cache's share of a request on a Zipf
// α 0.8 stream over a 6,500-document catalog, at the two shapes the
// benchmark workloads run: campaign4's full cache of 1,213 documents and
// the 90 a scale256 server holds (an index of 256 slots either way). has is
// the lookup every request starts with; has+insert adds the Insert of a
// node that reads every miss from its disk and evicts to make room.
// refill is a restore's refill of a full 1,213-document cache.
func BenchmarkDocCache(b *testing.B) {
	cat := trace.NewCatalog(6500, 27*1024, 0.8)
	rng := rand.New(rand.NewSource(1))
	stream := make([]trace.DocID, 1<<16)
	for i := range stream {
		stream[i] = cat.Sample(rng)
	}
	warm := func(capDocs int) *docCache {
		c := newDocCache(capDocs)
		for _, d := range stream {
			if !c.Has(d) {
				c.Insert(d)
			}
		}
		return c
	}
	for _, capDocs := range []int{1213, 90} {
		b.Run(fmt.Sprintf("has/docs=%d", capDocs), func(b *testing.B) {
			c := warm(capDocs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Has(stream[i&(len(stream)-1)])
			}
		})
		b.Run(fmt.Sprintf("has+insert/docs=%d", capDocs), func(b *testing.B) {
			c := warm(capDocs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if d := stream[i&(len(stream)-1)]; !c.Has(d) {
					c.Insert(d)
				}
			}
		})
	}
	b.Run("refill/docs=1213", func(b *testing.B) {
		docs := warm(1213).Docs()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			newDocCache(1213).refill(docs)
		}
	})
}

// Docs lists what the cache holds in a slice of exactly that size, and an
// empty cache — every server's in the formation storm's Hellos — lists
// nil.
func TestDocsSizedToTheFill(t *testing.T) {
	c := newDocCache(90)
	if docs := c.Docs(); docs != nil {
		t.Fatalf("an empty cache lists %v, want nil", docs)
	}
	for d := range 5 {
		c.Insert(trace.DocID(d))
	}
	if docs := c.Docs(); len(docs) != 5 || cap(docs) != 5 || docs[0] != 4 || docs[4] != 0 {
		t.Errorf("a 5-document cache lists %v in a slice of capacity %d, want [4 3 2 1 0] in 5", docs, cap(docs))
	}
}
