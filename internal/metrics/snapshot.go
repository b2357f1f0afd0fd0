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
		// Format 7's retired second lazy argument: written as 0, and a
		// load refuses another value (format 8 drops the slot).
		var a1 int64
		snapio.Int(x, &r.at)
		snapio.Int(x, &r.a0)
		snapio.Int(x, &a1)
		snapio.Int(x, &ref.detail)
		snapio.Int(x, &r.node)
		snapio.Int(x, &ref.src)
		snapio.Int(x, &ref.kind)
		snapio.Uint(x, &r.nargs)
		if x.Saving() {
			continue
		}
		if a1 != 0 || r.nargs > 1 {
			snapio.Failf("event log: record %d has a second argument (%d, %d args); records carry at most one", i, a1, r.nargs)
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
		// Each chunk is made when its first record has arrived, so a
		// count the stream merely claims sizes at most one chunk; the
		// last one holds exactly the records restored.
		if l.n&chunkMask == 0 {
			l.chunks = append(l.chunks, make([]record, min(chunkSize, n-l.n)))
		}
		*l.rec(l.n) = r
		l.n++
	}
}

// SnapState moves the series as its whole bucket list, head then tail;
// loading makes a series of its own that takes Adds again.
func (s *Series) SnapState(x *snapio.Ctx) {
	snapio.Int(x, &s.Width)
	all := s.Buckets()
	snapio.Slice(x, &all, 1<<26, x.F64)
	if !x.Saving() {
		s.head, s.buckets, s.held = nil, all, false
	}
}
