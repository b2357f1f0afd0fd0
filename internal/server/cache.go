package server

import (
	mbits "math/bits"

	"press/internal/cnet"
	"press/internal/trace"
)

// cacheEnt is one LRU entry, linked by positions in the cache's slab. The
// slab grows only while the cache fills; at capacity the evicted entry is
// re-stamped for the incoming document, so a steady-state insert allocates
// nothing.
type cacheEnt struct {
	doc        trace.DocID
	prev, next int32
}

// docCache is the per-node LRU file cache. All documents are uniform-size
// (the paper's modified trace), so capacity is simply a document count.
// Neither the slab nor the index holds a pointer for the collector to scan.
type docCache struct {
	cap  int
	ents []cacheEnt // the slab; ents[0] is the sentinel: next = most recent, prev = oldest
	// index is dense by DocID — catalog documents are numbered from zero,
	// so presence is one bounds check and one load on the hottest path in
	// the whole model (every request starts with Has). It holds the
	// document's position in ents, 0 when it is not cached. Grown on
	// demand for out-of-catalog IDs (tests).
	index []int32
}

func newDocCache(capDocs, totalDocs int) *docCache {
	if capDocs < 1 {
		capDocs = 1
	}
	return &docCache{cap: capDocs, ents: make([]cacheEnt, 1), index: make([]int32, totalDocs)}
}

// ent returns doc's position in the slab, 0 when not cached.
func (c *docCache) ent(doc trace.DocID) int32 {
	if int(doc) >= len(c.index) || doc < 0 {
		return 0
	}
	return c.index[doc]
}

// grow widens the index to cover doc.
func (c *docCache) grow(doc trace.DocID) {
	if int(doc) >= len(c.index) {
		grown := make([]int32, int(doc)+1)
		copy(grown, c.index)
		c.index = grown
	}
}

func (c *docCache) pushFront(i int32) {
	e, root := &c.ents[i], &c.ents[0]
	e.prev, e.next = 0, root.next
	c.ents[root.next].prev = i
	root.next = i
}

func (c *docCache) moveToFront(i int32) {
	if e := c.ents[i]; e.prev != 0 { // not already the most recent
		c.ents[e.prev].next = e.next
		c.ents[e.next].prev = e.prev
		c.pushFront(i)
	}
}

// Has reports whether doc is cached, refreshing its recency on a hit.
func (c *docCache) Has(doc trace.DocID) bool {
	i := c.ent(doc)
	if i != 0 {
		c.moveToFront(i)
	}
	return i != 0
}

// Peek reports presence without touching recency.
func (c *docCache) Peek(doc trace.DocID) bool {
	return c.ent(doc) != 0
}

// Insert caches doc, returning the evicted document (and true) when the
// cache was full. Inserting a present doc only refreshes recency.
func (c *docCache) Insert(doc trace.DocID) (evicted trace.DocID, didEvict bool) {
	if i := c.ent(doc); i != 0 {
		c.moveToFront(i)
		return 0, false
	}
	c.grow(doc)
	if len(c.ents)-1 >= c.cap {
		i := c.ents[0].prev // oldest
		evicted = c.ents[i].doc
		c.index[evicted] = 0
		c.ents[i].doc = doc
		c.index[doc] = i
		c.moveToFront(i)
		return evicted, true
	}
	i := int32(len(c.ents))
	c.ents = append(c.ents, cacheEnt{doc: doc})
	c.index[doc] = i
	c.pushFront(i)
	return 0, false
}

// Docs lists the cached documents, most recent first. Used to seed a
// peer's directory on (re)connection.
func (c *docCache) Docs() []trace.DocID {
	out := make([]trace.DocID, 0, len(c.ents)-1)
	for i := c.ents[0].next; i != 0; i = c.ents[i].next {
		out = append(out, c.ents[i].doc)
	}
	return out
}

// directory tracks which cluster nodes cache which documents, fed by
// broadcast announcements and Hello exchanges. Node sets are bitmasks
// indexed by position in the static node list. Clusters up to 64 nodes
// keep one word per catalog document in a table indexed by DocID — every
// routed miss reads it and every announcement writes it, so it is a load
// and a store, not a hash probe; larger clusters spill into multi-word
// masks, kept in a map because a dense table of them would cost
// docs × words × 8 bytes on each of hundreds of servers.
type directory struct {
	bits    []uint64                 // narrow shape: bits[doc], zero when nobody holds doc
	entries int                      // non-zero words of bits
	wide    map[trace.DocID][]uint64 // multi-word masks; used iff words > 1
	words   int
	idx     []uint32      // static bit-position table (position+1 by NodeID, 0 for a stranger), rebuilt by the constructor
	nodes   []cnet.NodeID // static bit-position table, rebuilt by the constructor
}

// newDirectory builds the directory of a cluster of nodes over a catalog
// of docs documents. The narrow shape records nothing about a document
// outside the catalog.
func newDirectory(nodes []cnet.NodeID, docs int) *directory {
	d := &directory{nodes: append([]cnet.NodeID(nil), nodes...)}
	for i, n := range nodes {
		if n < 0 {
			continue
		}
		if int(n) >= len(d.idx) {
			d.idx = append(d.idx, make([]uint32, int(n)+1-len(d.idx))...)
		}
		d.idx[n] = uint32(i) + 1
	}
	d.words = (len(nodes) + 63) / 64
	if d.words <= 1 {
		d.words = 1
		d.bits = make([]uint64, docs)
	} else {
		d.wide = make(map[trace.DocID][]uint64)
	}
	return d
}

// bit returns node's position in the masks; ok is false for a node that is
// not in the static list.
func (d *directory) bit(node cnet.NodeID) (bit uint, ok bool) {
	if node < 0 || int(node) >= len(d.idx) || d.idx[node] == 0 {
		return 0, false
	}
	return uint(d.idx[node] - 1), true
}

// mask returns doc's word in the narrow shape.
func (d *directory) mask(doc trace.DocID) uint64 {
	if doc < 0 || int(doc) >= len(d.bits) {
		return 0
	}
	return d.bits[doc]
}

// setMask replaces doc's word in the narrow shape, keeping the entry count.
func (d *directory) setMask(doc trace.DocID, mask uint64) {
	if doc < 0 || int(doc) >= len(d.bits) {
		return
	}
	switch old := d.bits[doc]; {
	case old == 0 && mask != 0:
		d.entries++
	case old != 0 && mask == 0:
		d.entries--
	}
	d.bits[doc] = mask
}

// Set records (or clears) that node caches doc.
func (d *directory) Set(node cnet.NodeID, doc trace.DocID, cached bool) {
	bit, ok := d.bit(node)
	if !ok {
		return
	}
	if d.words > 1 {
		mask := d.wide[doc]
		if cached {
			if mask == nil {
				mask = make([]uint64, d.words)
				d.wide[doc] = mask
			}
			mask[bit/64] |= 1 << (bit % 64)
			return
		}
		if mask == nil {
			return
		}
		mask[bit/64] &^= 1 << (bit % 64)
		for _, w := range mask {
			if w != 0 {
				return
			}
		}
		delete(d.wide, doc)
		return
	}
	if cached {
		d.setMask(doc, d.mask(doc)|1<<bit)
	} else {
		d.setMask(doc, d.mask(doc)&^(1<<bit))
	}
}

// eachHolder calls fn for every node recorded as caching doc, in
// ascending bit (= static node list) order. One mask fetch serves the
// whole scan, so the routing hot path costs O(holders) instead of the
// O(cluster) per-candidate Holds probing — the difference between flat
// and collapsing throughput at 256 nodes.
func (d *directory) eachHolder(doc trace.DocID, fn func(cnet.NodeID)) {
	if d.words > 1 {
		for wi, w := range d.wide[doc] {
			for w != 0 {
				b := wi*64 + mbits.TrailingZeros64(w)
				w &= w - 1
				fn(d.nodes[b])
			}
		}
		return
	}
	w := d.mask(doc)
	for w != 0 {
		b := mbits.TrailingZeros64(w)
		w &= w - 1
		fn(d.nodes[b])
	}
}

// DropNode forgets everything recorded about a node (it left the set).
func (d *directory) DropNode(node cnet.NodeID) {
	bit, ok := d.bit(node)
	if !ok {
		return
	}
	if d.words > 1 {
		for doc, mask := range d.wide {
			mask[bit/64] &^= 1 << (bit % 64)
			empty := true
			for _, w := range mask {
				if w != 0 {
					empty = false
					break
				}
			}
			if empty {
				delete(d.wide, doc)
			}
		}
		return
	}
	for doc, mask := range d.bits {
		if mask&(1<<bit) != 0 {
			d.setMask(trace.DocID(doc), mask&^(1<<bit))
		}
	}
}
