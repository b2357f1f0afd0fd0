package server

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"press/internal/cnet"
	"press/internal/trace"
)

func TestDocCacheLRUEviction(t *testing.T) {
	c := newDocCache(3, 16)
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
	c := newDocCache(2, 16)
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
	c := newDocCache(3, 16)
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

// Property: over any sequence of Insert, Has and Peek, the cache evicts the
// same documents and lists them in the same order as the slice LRU — the
// order a Hello and the snapshot walk write. That also bounds it by its
// capacity, and holds whether the index was sized for the catalog or grows.
func TestQuickDocCacheBounded(t *testing.T) {
	f := func(ops []uint16, capSeed uint8) bool {
		capDocs, docs := int(capSeed)%20+1, 0
		if capSeed&0x80 != 0 {
			docs = 40
		}
		c, ref := newDocCache(capDocs, docs), &sliceLRU{cap: capDocs}
		for _, op := range ops {
			d := trace.DocID(op/3) % 40
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
			if !slices.Equal(c.Docs(), ref.docs) {
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
