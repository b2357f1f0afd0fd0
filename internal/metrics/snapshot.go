package metrics

import (
	"press/internal/snapio"
)

// Snapshot support. Records are serialized field-for-field — including
// the lazy Sprintf form (format + args, rendered only on read) — so a
// restored log renders byte-identically. Source and kind IDs are
// process-global interning artifacts and are NOT portable across
// processes; the snapshot therefore carries names through a per-blob
// string table and re-interns on load.

// SnapState moves the full log: loading replaces the log's contents,
// re-interning source and kind names in this process's registry.
func (l *Log) SnapState(x *snapio.Ctx) {
	l.mu.Lock()
	defer l.mu.Unlock()

	// String table: unique detail strings and source/kind names in
	// first-appearance order, and each record's three indices into it.
	type strRefs struct{ detail, src, kind int }
	var strs []string
	var refs []strRefs
	if x.Saving() {
		strIdx := map[string]int{}
		intern := func(s string) int {
			i, ok := strIdx[s]
			if !ok {
				i = len(strs)
				strIdx[s] = i
				strs = append(strs, s)
			}
			return i
		}
		refs = make([]strRefs, l.n)
		for i := range refs {
			r := l.rec(i)
			refs[i] = strRefs{intern(r.detail), intern(r.src.String()), intern(r.kind.String())}
		}
	}
	snapio.Slice(x, &strs, 1<<24, x.Str)
	str := func(i int) string {
		if i < 0 || i >= len(strs) {
			snapio.Failf("event log: string index %d out of range", i)
		}
		return strs[i]
	}
	srcIDs := map[string]SourceID{}
	kindIDs := map[string]KindID{}

	n := x.Len(l.n, 1<<28)
	if !x.Saving() {
		l.chunks, l.n = nil, 0
	}
	for i := 0; i < n; i++ {
		var r record
		var ref strRefs
		if x.Saving() {
			r, ref = *l.rec(i), refs[i]
		}
		snapio.Int(x, &r.at)
		snapio.Int(x, &r.a0)
		snapio.Int(x, &r.a1)
		snapio.Int(x, &ref.detail)
		snapio.Int(x, &r.node)
		snapio.Int(x, &ref.src)
		snapio.Int(x, &ref.kind)
		snapio.Uint(x, &r.nargs)
		if x.Saving() {
			continue
		}
		r.detail = str(ref.detail)
		srcName, kindName := str(ref.src), str(ref.kind)
		src, ok := srcIDs[srcName]
		if !ok {
			src = InternSource(srcName)
			srcIDs[srcName] = src
		}
		kind, ok := kindIDs[kindName]
		if !ok {
			kind = InternKind(kindName)
			kindIDs[kindName] = kind
		}
		r.src, r.kind = src, kind
		if l.n>>chunkShift == len(l.chunks) {
			l.chunks = append(l.chunks, &chunk{})
		}
		l.chunks[l.n>>chunkShift].recs[l.n&chunkMask] = r
		l.n++
	}
}

// SnapState moves the series.
func (s *Series) SnapState(x *snapio.Ctx) {
	snapio.Int(x, &s.Width)
	snapio.Slice(x, &s.buckets, 1<<26, x.F64)
}
