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
	// index finds a document's position in ents: an open-addressed table of
	// slab positions (0 for an empty slot), keyed by each entry's document,
	// which sits at its Fibonacci-hashed home slot or in the first free slot
	// after it. Its length is a power of two and it is never more than half
	// full, so it follows what the cache holds — a few hundred slots on a
	// server holding 90 documents, whatever the catalog — and every request's
	// Has costs one multiply, a load or two and a compare. Above the
	// position, in the bits the slab does not need, a slot holds a tag of
	// its document's hash: a lookup passes over another document's slot
	// without reading that document's entry in the slab.
	index   []int32
	shift   uint // 64 − log2(len(index)): a hash's top bits are its home slot
	posBits uint // a slot's low bits hold the slab position; the tag is above

	// hello is the Hello carrying the current listing, boxed by the first
	// send that needs it and dropped when the listing changes: a formation
	// storm opens a send stream to every peer at once, and they all carry
	// one box and one listing.
	hello cnet.Message
}

const cacheIndexMin = 16 // an empty cache's index: one cache line

func newDocCache(capDocs int) *docCache {
	c := &docCache{cap: max(capDocs, 1), ents: make([]cacheEnt, 1)}
	c.posBits = uint(mbits.Len(uint(c.cap)))
	c.fit(0)
	return c
}

// docHash is doc's Fibonacci hash: its top bits pick doc's home slot, and
// its bits from 32 up tag the slot that holds doc.
func docHash(doc trace.DocID) uint64 { return uint64(uint32(doc)) * 0x9e3779b97f4a7c15 }

// home is doc's slot when nothing collides with it.
func (c *docCache) home(doc trace.DocID) int { return int(docHash(doc) >> c.shift) }

// tagged is what the index holds for slab position e, whose document
// hashes to h: e in the low posBits, and above it as many of the hash's
// bits from 32 up as fit in a positive int32. A lookup that finds another
// tag in a slot passes on without reading the slab.
func (c *docCache) tagged(e int32, h uint64) int32 {
	return int32(uint32(h>>32)<<c.posBits&(1<<31-1)) | e
}

// pos is the slab position a slot holds.
func (c *docCache) pos(slot int32) int32 { return slot & (1<<c.posBits - 1) }

// ent returns doc's position in the slab, 0 when not cached.
func (c *docCache) ent(doc trace.DocID) int32 {
	mask := len(c.index) - 1
	h := docHash(doc)
	want := c.tagged(0, h)
	for i := int(h >> c.shift); ; i = (i + 1) & mask {
		slot := c.index[i]
		if slot == 0 {
			return 0
		}
		if e := c.pos(slot); slot^e == want && c.ents[e].doc == doc {
			return e
		}
	}
}

// place files slab position e under its document, which is not in the
// index.
func (c *docCache) place(e int32) {
	mask := len(c.index) - 1
	h := docHash(c.ents[e].doc)
	i := int(h >> c.shift)
	for c.index[i] != 0 {
		i = (i + 1) & mask
	}
	c.index[i] = c.tagged(e, h)
}

// unplace takes slab position e out of the index. What sat behind it in
// the same run of occupied slots moves up, as in reqTable.del, so a lookup
// never has to step over a grave.
func (c *docCache) unplace(e int32) {
	mask := len(c.index) - 1
	i := c.home(c.ents[e].doc)
	for c.pos(c.index[i]) != e {
		i = (i + 1) & mask
	}
	for j := i; ; {
		c.index[i] = 0
		for {
			j = (j + 1) & mask
			o := c.index[j]
			if o == 0 {
				return
			}
			// o may move up to the hole at i unless its home lies after the
			// hole, between i (exclusive) and j (inclusive).
			if (j-c.home(c.ents[c.pos(o)].doc))&mask >= (j-i)&mask {
				c.index[i] = o
				i = j
				break
			}
		}
	}
}

// fit doubles the index until n documents leave it at most half full,
// filing the cached ones again if it grew.
func (c *docCache) fit(n int) {
	size := max(len(c.index), cacheIndexMin)
	for 2*n > size {
		size *= 2
	}
	if size == len(c.index) {
		return
	}
	c.index = make([]int32, size)
	c.shift = uint(mbits.LeadingZeros64(uint64(size - 1)))
	for e := int32(1); e < int32(len(c.ents)); e++ {
		c.place(e)
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
		c.hello = nil
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
	c.hello = nil
	if i := c.ent(doc); i != 0 {
		c.moveToFront(i)
		return 0, false
	}
	if len(c.ents)-1 >= c.cap {
		i := c.ents[0].prev // oldest
		evicted = c.ents[i].doc
		c.unplace(i)
		c.ents[i].doc = doc
		c.place(i)
		c.moveToFront(i)
		return evicted, true
	}
	c.fit(len(c.ents))
	i := int32(len(c.ents))
	c.ents = append(c.ents, cacheEnt{doc: doc})
	c.place(i)
	c.pushFront(i)
	return 0, false
}

// refill caches docs, listed most recent first as Docs lists them. The
// index is sized for them once, not doubled through every size on the way.
func (c *docCache) refill(docs []trace.DocID) {
	c.fit(min(len(c.ents)-1+len(docs), c.cap))
	for i := len(docs) - 1; i >= 0; i-- {
		c.Insert(docs[i])
	}
}

// Docs lists the cached documents, most recent first, in a slice of their
// count (the slab holds exactly them), and nil when there are none: the
// Hellos of a formation storm carry empty caches. Used to seed a peer's
// directory on (re)connection.
func (c *docCache) Docs() []trace.DocID {
	if len(c.ents) == 1 {
		return nil
	}
	out := make([]trace.DocID, 0, len(c.ents)-1)
	for i := c.ents[0].next; i != 0; i = c.ents[i].next {
		out = append(out, c.ents[i].doc)
	}
	return out
}

// Hello returns the Hello that introduces self with the cached documents,
// and its wire size. It is boxed once for every send until the cache
// changes; receivers only read its listing.
func (c *docCache) Hello(self cnet.NodeID) (cnet.Message, int) {
	if c.hello == nil {
		c.hello = HelloMsg{From: self, CacheDocs: c.Docs()}
	}
	return c.hello, sizeHello + 4*len(c.hello.(HelloMsg).CacheDocs)
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
