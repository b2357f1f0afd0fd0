package server

import (
	"math/rand"
	"slices"
	"testing"

	"press/internal/cnet"
	"press/internal/trace"
)

// TestDirectoryMatchesReferenceMap drives random Set / Holds / eachHolder /
// DropNode / Entries sequences against the obvious model — a map from
// (document, node) to "cached" — in both shapes: the narrow one (a word
// per catalog document, indexed by DocID) and the wide one (multi-word
// masks in a map). Node ids are sparse and unordered, strangers and
// documents outside the catalog turn up, and the narrow table's entry
// count has to survive all of it.
func TestDirectoryMatchesReferenceMap(t *testing.T) {
	const docs = 50
	for _, shape := range []struct {
		name  string
		nodes int
		words int
	}{{"narrow", 64, 1}, {"narrow-small", 5, 1}, {"wide", 130, 3}} {
		t.Run(shape.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(shape.nodes)))
			// Ids 3, 6, 9, … in a shuffled static list: bit position is the
			// list position, not the id.
			nodes := make([]cnet.NodeID, shape.nodes)
			for i := range nodes {
				nodes[i] = cnet.NodeID(3 * (i + 1))
			}
			rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
			member := map[cnet.NodeID]bool{}
			for _, n := range nodes {
				member[n] = true
			}
			d := newDirectory(nodes, docs)
			if d.words != shape.words {
				t.Fatalf("words = %d, want %d", d.words, shape.words)
			}
			type key struct {
				doc  trace.DocID
				node cnet.NodeID
			}
			ref := map[key]bool{}
			anyNode := func() cnet.NodeID { return cnet.NodeID(rng.Intn(3*shape.nodes+6) - 2) } // strangers and negatives too
			inCatalog := func(doc trace.DocID) bool { return doc >= 0 && int(doc) < docs }
			anyDoc := func() trace.DocID {
				if shape.words == 1 && rng.Intn(50) == 0 {
					return trace.DocID(rng.Intn(3*docs) - docs) // outside the catalog: the narrow table ignores it
				}
				return trace.DocID(rng.Intn(docs))
			}

			for step := 0; step < 20000; step++ {
				switch op := rng.Intn(10); {
				case op < 5:
					n, doc, cached := anyNode(), anyDoc(), rng.Intn(3) != 0
					d.Set(n, doc, cached)
					if member[n] && inCatalog(doc) {
						if cached {
							ref[key{doc, n}] = true
						} else {
							delete(ref, key{doc, n})
						}
					}
				case op < 6 && rng.Intn(8) == 0:
					n := anyNode()
					d.DropNode(n)
					for k := range ref {
						if k.node == n {
							delete(ref, k)
						}
					}
				case op < 8:
					n, doc := anyNode(), anyDoc()
					if got := d.Holds(doc, n); got != ref[key{doc, n}] {
						t.Fatalf("step %d: Holds(%d, %d) = %v, model says %v", step, doc, n, got, !got)
					}
				default:
					doc := anyDoc()
					var got []cnet.NodeID
					d.eachHolder(doc, func(n cnet.NodeID) { got = append(got, n) })
					var want []cnet.NodeID
					for _, n := range nodes { // static-list order is bit order
						if ref[key{doc, n}] {
							want = append(want, n)
						}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("step %d: eachHolder(%d) = %v, model says %v", step, doc, got, want)
					}
				}
				held := map[trace.DocID]bool{}
				for k := range ref {
					held[k.doc] = true
				}
				if d.Entries() != len(held) {
					t.Fatalf("step %d: Entries = %d, model holds %d documents", step, d.Entries(), len(held))
				}
			}
		})
	}
}

// TestReqTableMatchesReferenceMap: the in-flight table against a map,
// with ids handed out in ascending order as a server does, most requests
// short-lived and a few that outlive many table-lengths of successors —
// the ones that make two live ids share a slot.
func TestReqTableMatchesReferenceMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var tab reqTable
	ref := map[uint64]*reqState{}
	var live []uint64
	next := uint64(0)
	for step := 0; step < 200000; step++ {
		switch op := rng.Intn(10); {
		case op < 4 || len(live) == 0:
			next++
			st := &reqState{id: next}
			tab.put(st)
			ref[next] = st
			live = append(live, next)
		case op < 8:
			// Mostly the oldest few go, sometimes anything: stragglers stay.
			i := rng.Intn(min(len(live), 4))
			if rng.Intn(20) == 0 {
				i = rng.Intn(len(live))
			}
			if i == 0 && rng.Intn(3) != 0 && len(live) > 1 {
				i = 1 // let the eldest linger
			}
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			if !tab.del(id) {
				t.Fatalf("step %d: del(%d) found nothing", step, id)
			}
			delete(ref, id)
			if tab.del(id) {
				t.Fatalf("step %d: del(%d) twice", step, id)
			}
		default:
			id := uint64(rng.Intn(int(next)+2)) + uint64(rng.Intn(2))*uint64(len(tab.slots))
			if got := tab.get(id); got != ref[id] {
				t.Fatalf("step %d: get(%d) = %v, model says %v", step, id, got, ref[id])
			}
		}
		if tab.n != len(ref) {
			t.Fatalf("step %d: len = %d, model %d", step, tab.n, len(ref))
		}
		if step%997 == 0 {
			asc := tab.ascending()
			if len(asc) != len(ref) {
				t.Fatalf("step %d: ascending lists %d of %d", step, len(asc), len(ref))
			}
			for i, st := range asc {
				if ref[st.id] != st || (i > 0 && asc[i-1].id >= st.id) {
					t.Fatalf("step %d: ascending out of order or stale at %d", step, i)
				}
			}
			for id, st := range ref {
				if tab.get(id) != st {
					t.Fatalf("step %d: get(%d) lost a live request", step, id)
				}
			}
		}
	}
	if 2*tab.n > len(tab.slots) {
		t.Fatalf("table over half full: %d in %d", tab.n, len(tab.slots))
	}
}

// What only the tests ask of a directory; routing reads it through
// eachHolder and a snapshot through its own walk.

// Holds reports whether node n is recorded as caching doc.
func (d *directory) Holds(doc trace.DocID, n cnet.NodeID) bool {
	bit, ok := d.bit(n)
	if !ok {
		return false
	}
	if d.words > 1 {
		mask := d.wide[doc]
		return mask != nil && mask[bit/64]&(1<<(bit%64)) != 0
	}
	return d.mask(doc)&(1<<bit) != 0
}

// Holders returns the nodes (from candidates) recorded as caching doc.
func (d *directory) Holders(doc trace.DocID, candidates []cnet.NodeID) []cnet.NodeID {
	var out []cnet.NodeID
	for _, n := range candidates {
		if d.Holds(doc, n) {
			out = append(out, n)
		}
	}
	return out
}

// Entries returns the number of documents with at least one holder.
func (d *directory) Entries() int {
	if d.words > 1 {
		return len(d.wide)
	}
	return d.entries
}
