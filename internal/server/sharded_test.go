package server

import (
	"math/rand"
	"testing"

	"press/internal/cnet"
	"press/internal/trace"
)

// wideNodes returns an n-node ID list, n chosen to exercise the
// multi-word directory masks (n > 64).
func wideNodes(n int) []cnet.NodeID {
	ids := make([]cnet.NodeID, n)
	for i := range ids {
		ids[i] = cnet.NodeID(i)
	}
	return ids
}

func TestDirectoryWideSetAndHolders(t *testing.T) {
	nodes := wideNodes(100)
	d := newDirectory(nodes, 100)
	if d.words != 2 {
		t.Fatalf("words = %d for 100 nodes, want 2", d.words)
	}
	// Holders across both words: bits 3, 63, 64, 99.
	for _, n := range []cnet.NodeID{3, 63, 64, 99} {
		d.Set(n, 7, true)
	}
	for _, n := range []cnet.NodeID{3, 63, 64, 99} {
		if !d.Holds(7, n) {
			t.Fatalf("node %d not recorded as holder", n)
		}
	}
	if d.Holds(7, 65) || d.Holds(8, 3) {
		t.Fatal("phantom holder recorded")
	}
	if got := d.Holders(7, nodes); len(got) != 4 {
		t.Fatalf("Holders = %v, want 4 nodes", got)
	}
	// Clearing the last holder of a doc must delete its entry.
	for _, n := range []cnet.NodeID{3, 63, 64, 99} {
		d.Set(n, 7, false)
	}
	if d.Entries() != 0 {
		t.Fatalf("Entries = %d after clearing all holders, want 0", d.Entries())
	}
}

func TestDirectoryWideDropNode(t *testing.T) {
	d := newDirectory(wideNodes(130), 100)
	d.Set(64, 1, true) // second word
	d.Set(129, 1, true)
	d.Set(64, 2, true) // sole holder
	d.DropNode(64)
	if d.Holds(1, 64) {
		t.Fatal("dropped node still recorded")
	}
	if !d.Holds(1, 129) {
		t.Fatal("unrelated holder lost")
	}
	if d.Entries() != 1 {
		t.Fatalf("Entries = %d, want 1 (doc 2's entry must be deleted with its last holder)", d.Entries())
	}
}

// TestQuickDirectoryWideMatchesNarrow drives the same random operation
// sequence against a 64-node single-word directory and the same 64 nodes
// embedded in a 128-node multi-word one; every Holds answer must agree.
func TestQuickDirectoryWideMatchesNarrow(t *testing.T) {
	narrow := newDirectory(wideNodes(64), 100)
	wide := newDirectory(wideNodes(128), 100)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 5000; i++ {
		n := cnet.NodeID(rng.Intn(64))
		doc := trace.DocID(rng.Intn(40))
		switch rng.Intn(5) {
		case 0:
			narrow.DropNode(n)
			wide.DropNode(n)
		default:
			cached := rng.Intn(3) != 0
			narrow.Set(n, doc, cached)
			wide.Set(n, doc, cached)
		}
		cn := cnet.NodeID(rng.Intn(64))
		cd := trace.DocID(rng.Intn(40))
		if narrow.Holds(cd, cn) != wide.Holds(cd, cn) {
			t.Fatalf("step %d: narrow/wide disagree on doc %d node %d", i, cd, cn)
		}
	}
	if narrow.Entries() != wide.Entries() {
		t.Fatalf("Entries diverged: narrow %d, wide %d", narrow.Entries(), wide.Entries())
	}
}

// TestShardOwnerMatchesHomePlacement: the sharded directory authority
// for a document must be the same node the request router falls back to
// (home = view[doc mod n]) — that coincidence is what makes the owner
// both the directory and the natural miss target.
func TestShardOwnerMatchesHomePlacement(t *testing.T) {
	nodes := wideNodes(96)
	s := &Server{cfg: Config{Self: 0, Nodes: nodes}}
	s.sizeNodeTables()
	for _, n := range nodes {
		s.viewAdd(n)
	}
	for doc := trace.DocID(0); doc < 500; doc++ {
		view := s.sortedView()
		if got, want := s.shardOwner(doc), view[int(doc)%len(view)]; got != want {
			t.Fatalf("doc %d: shardOwner %d, home %d", doc, got, want)
		}
	}
}
