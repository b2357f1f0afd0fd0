package server

import (
	"math/rand"
	"slices"
	"testing"

	"press/internal/cnet"
	"press/internal/snapio"
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

// TestNarrowDirectoryAcrossSizes drives random Set / DropNode sequences
// against a reference map in the narrow table at every cluster size where
// a mask's bytes step (one byte up to eight, and the 64-node edge), and
// checks what routing and a snapshot read of it: eachHolder, the entry
// count, and the bytes the walk writes — one uint64 mask per held
// document, ascending — which load back into the same sets. A table that
// kept fewer bytes a mask than its cluster needs fails here.
func TestNarrowDirectoryAcrossSizes(t *testing.T) {
	const docs = 40
	for _, n := range []int{1, 4, 8, 9, 16, 17, 63, 64} {
		rng := rand.New(rand.NewSource(int64(100 + n)))
		nodes := make([]cnet.NodeID, n)
		for i := range nodes {
			nodes[i] = cnet.NodeID(2*i + 1)
		}
		rng.Shuffle(n, func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
		d := newDirectory(nodes, docs)
		if d.words != 1 {
			t.Fatalf("N=%d: %d words a mask, want the narrow table's 1", n, d.words)
		}
		ref := map[trace.DocID]map[cnet.NodeID]bool{}
		for step := 0; step < 4000; step++ {
			node := nodes[rng.Intn(n)]
			if rng.Intn(60) == 0 {
				d.DropNode(node)
				for _, set := range ref {
					delete(set, node)
				}
			} else {
				doc, cached := trace.DocID(rng.Intn(docs)), rng.Intn(3) != 0
				d.Set(node, doc, cached)
				if ref[doc] == nil {
					ref[doc] = map[cnet.NodeID]bool{}
				}
				if cached {
					ref[doc][node] = true
				} else {
					delete(ref[doc], node)
				}
			}
			if step%50 == 0 {
				checkNarrow(t, n, step, d, nodes, ref)
			}
		}
		checkNarrow(t, n, -1, d, nodes, ref)
	}
}

// checkNarrow holds d to ref: eachHolder of every document, the entry
// count, the walk's bytes against the ones ref describes, and a fresh
// directory loaded from them.
func checkNarrow(t *testing.T, n, step int, d *directory, nodes []cnet.NodeID, ref map[trace.DocID]map[cnet.NodeID]bool) {
	t.Helper()
	want := &snapio.Ctx{Enc: &snapio.Encoder{}}
	var held []trace.DocID
	for doc := range trace.DocID(len(d.bits)) {
		if len(ref[doc]) > 0 {
			held = append(held, doc)
		}
	}
	want.Len(len(held), 1<<24)
	for _, doc := range held {
		var mask uint64
		for b, node := range nodes {
			if ref[doc][node] {
				mask |= 1 << b
			}
		}
		snapio.Int(want, &doc)
		want.U64(&mask)
	}
	if d.entries != len(held) {
		t.Fatalf("N=%d step %d: %d entries, the model holds %d documents", n, step, d.entries, len(held))
	}
	save := &snapio.Ctx{Enc: &snapio.Encoder{}}
	d.snap(save, func(doc *trace.DocID) { snapio.Int(save, doc) })
	if !slices.Equal(save.Enc.Bytes(), want.Enc.Bytes()) {
		t.Fatalf("N=%d step %d: the walk writes %x, want %x", n, step, save.Enc.Bytes(), want.Enc.Bytes())
	}
	back := newDirectory(nodes, len(d.bits))
	load := &snapio.Ctx{Dec: snapio.NewDecoder(save.Enc.Bytes())}
	back.snap(load, func(doc *trace.DocID) { snapio.Int(load, doc) })
	if err := load.Dec.Err(); err != nil || !load.Dec.Done() {
		t.Fatalf("N=%d step %d: loading the walk: %v (done %v)", n, step, err, load.Dec.Done())
	}
	for _, dir := range []*directory{d, back} {
		for doc := range trace.DocID(len(d.bits)) {
			var got, model []cnet.NodeID
			dir.eachHolder(doc, func(node cnet.NodeID) { got = append(got, node) })
			for _, node := range nodes { // static-list order is bit order
				if ref[doc][node] {
					model = append(model, node)
				}
			}
			if !slices.Equal(got, model) {
				t.Fatalf("N=%d step %d: eachHolder(%d) = %v, the model says %v", n, step, doc, got, model)
			}
		}
	}
	if back.entries != d.entries || !slices.Equal(back.bits, d.bits) {
		t.Fatalf("N=%d step %d: the loaded table differs from its source", n, step)
	}
}

// TestNarrowDirectoryRefusesStrangers: a loaded mask naming a bit past
// the cluster's nodes, which eachHolder would index the node list with,
// is refused before it is stored.
func TestNarrowDirectoryRefusesStrangers(t *testing.T) {
	for _, n := range []int{1, 4, 9, 63} {
		nodes := make([]cnet.NodeID, n)
		for i := range nodes {
			nodes[i] = cnet.NodeID(i)
		}
		enc := &snapio.Ctx{Enc: &snapio.Encoder{}}
		enc.Len(1, 1<<24)
		doc, mask := trace.DocID(3), uint64(1)<<n
		snapio.Int(enc, &doc)
		enc.U64(&mask)
		d := newDirectory(nodes, 10)
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err, _ = r.(*snapio.SnapError)
				}
			}()
			x := &snapio.Ctx{Dec: snapio.NewDecoder(enc.Enc.Bytes())}
			d.snap(x, func(doc *trace.DocID) { snapio.Int(x, doc) })
			return nil
		}()
		if err == nil || d.entries != 0 {
			t.Fatalf("N=%d: a mask with bit %d loaded (%v, %d entries)", n, n, err, d.entries)
		}
	}
}
