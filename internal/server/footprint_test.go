package server

import (
	"reflect"
	"testing"
	"unsafe"
)

// Every server keeps a peer record per other node, so at N=256 a world
// holds 65,280 of them: the record is pinned at two cache lines. It holds
// no handlers — every send stream shares the server's one set, which finds
// the record through the stream's word — so nothing else is kept per peer.
func TestPeerRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(peer{}); got > 128 {
		t.Errorf("peer is %d bytes, want at most 128", got)
	}
}

// The document cache's index is dense by catalog document on every server
// (6,500 entries each at N=256), so it holds 4-byte slab positions, and the
// slab's entries hold no pointer: the collector scans neither.
func TestDocCacheEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(cacheEnt{}); got != 12 {
		t.Errorf("cacheEnt is %d bytes, want 12", got)
	}
	ent := reflect.TypeOf(cacheEnt{})
	for i := range ent.NumField() {
		if f := ent.Field(i); f.Type.Kind() != reflect.Int32 {
			t.Errorf("cacheEnt.%s is a %s, want an int32", f.Name, f.Type)
		}
	}
	if idx, ok := reflect.TypeOf(docCache{}).FieldByName("index"); !ok || idx.Type.Elem().Kind() != reflect.Int32 {
		t.Errorf("docCache.index is %v, want []int32", idx.Type)
	}
}
