package server

import (
	"reflect"
	"testing"
	"unsafe"

	"press/internal/trace"
)

// Every server keeps a peer record per other node, so at N=256 a world
// holds 65,280 of them: the record is pinned at one cache line. It holds
// no handlers — every send stream shares the server's one set, which finds
// the record through the stream's word — and no send queue or redial
// state until a message has had to wait or a dial has failed.
func TestPeerRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(peer{}); got > 64 {
		t.Errorf("peer is %d bytes, want at most 64", got)
	}
}

// The document cache's index follows what the cache holds, not the
// catalog: a scale256 server's cache of capacity 1,213 over a
// 6,500-document catalog holds about 90 documents, in a few hundred 4-byte
// slots, wherever in the id space they lie. The slab's entries hold no
// pointer, so the collector scans neither.
func TestDocCacheIndexFollowsFill(t *testing.T) {
	if got := unsafe.Sizeof(cacheEnt{}); got != 12 {
		t.Errorf("cacheEnt is %d bytes, want 12", got)
	}
	ent := reflect.TypeOf(cacheEnt{})
	for i := range ent.NumField() {
		if f := ent.Field(i); f.Type.Kind() != reflect.Int32 {
			t.Errorf("cacheEnt.%s is a %s, want an int32", f.Name, f.Type)
		}
	}
	if idx, _ := reflect.TypeOf(docCache{}).FieldByName("index"); idx.Type != reflect.TypeOf([]int32(nil)) {
		t.Errorf("docCache.index is %v, want []int32", idx.Type)
	}

	const capDocs, catalog = 1213, 6500
	for _, spread := range []trace.DocID{1, catalog / 90, 1 << 20} {
		c := newDocCache(capDocs)
		for i := range trace.DocID(90) {
			c.Insert(i * spread)
		}
		if got := len(c.index); got > 256 {
			t.Errorf("90 documents %d apart: the index has %d slots, want at most 256", spread, got)
		}
		for i := range trace.DocID(capDocs) {
			c.Insert(catalog + i*spread)
		}
		if got := len(c.index); got > 4096 {
			t.Errorf("a full cache of %d documents %d apart: the index has %d slots, want at most 4,096", capDocs, spread, got)
		}
	}
}
