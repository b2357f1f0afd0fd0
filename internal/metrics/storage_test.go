package metrics

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"press/internal/snapio"
)

// TestRecordSize pins a record at 48 bytes, so a chunk is 12,288 B, one
// size class. A second lazy argument back in the record makes it 56.
func TestRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(record{}); got != 48 {
		t.Fatalf("record is %d B, want 48", got)
	}
}

// fill appends n events to l, the i'th at i ms, alternating the literal
// and the lazy form so both travel.
func fill(l *Log, from, n int) {
	src := InternSource("press/storage")
	for i := from; i < from+n; i++ {
		if i%2 == 0 {
			l.EmitID(time.Duration(i)*time.Millisecond, src, KDetect, i%7, "literal")
		} else {
			l.EmitInt(time.Duration(i)*time.Millisecond, src, KExclude, i%7, "lazy %d", int64(i))
		}
	}
}

// restored is a log of n events, saved and loaded back.
func restored(t *testing.T, n int) *Log {
	t.Helper()
	var src Log
	fill(&src, 0, n)
	x := &snapio.Ctx{Enc: &snapio.Encoder{}}
	src.SnapState(x)
	l, err := load(x.Enc.Bytes())
	if err != nil {
		t.Fatalf("loading a log of %d events: %v", n, err)
	}
	return l
}

// load runs a log's walk over blob, converting a refusal into an error as
// the snapshot boundary does.
func load(blob []byte) (l *Log, err error) {
	defer func() {
		if r := recover(); r != nil {
			se, ok := r.(*snapio.SnapError)
			if !ok {
				panic(r)
			}
			err = se
		}
	}()
	x := &snapio.Ctx{Dec: snapio.NewDecoder(blob)}
	l = &Log{}
	l.SnapState(x)
	if err := x.Dec.Err(); err != nil {
		return nil, err
	}
	if !x.Dec.Done() {
		return nil, errors.New("trailing bytes")
	}
	return l, nil
}

// stored is how many records the log's chunks have room for.
func stored(l *Log) int {
	n := 0
	for _, c := range l.chunks {
		n += len(c)
	}
	return n
}

// want is the i'th event fill makes.
func want(i int) Event {
	var f Log
	fill(&f, i, 1)
	e, _ := f.Query().First()
	return e
}

// TestRestoredLogStorage: a restored log below chunkSize records holds at
// most twice its records in storage, through every append until its
// chunk is full; a fresh log's chunks are full-sized, and a restored log
// of more than chunkSize keeps every chunk but the last full.
func TestRestoredLogStorage(t *testing.T) {
	for _, n := range []int{1, 2, 40, 67, 128, 255} {
		l := restored(t, n)
		for k := n; k < chunkSize; k++ {
			if s := stored(l); s > 2*k {
				t.Fatalf("restored %d, at %d records: storage for %d, want at most %d", n, k, s, 2*k)
			}
			fill(l, k, 1)
		}
	}
	var fresh Log
	fill(&fresh, 0, 1)
	if s := stored(&fresh); s != chunkSize {
		t.Errorf("a fresh log holds room for %d records, want a full chunk of %d", s, chunkSize)
	}
	l := restored(t, chunkSize+44)
	if len(l.chunks) != 2 || len(l.chunks[0]) != chunkSize || len(l.chunks[1]) != 44 {
		t.Errorf("a restored log of %d has chunks of %d records, want [%d 44]", chunkSize+44, lens(l), chunkSize)
	}
}

func lens(l *Log) []int {
	var out []int
	for _, c := range l.chunks {
		out = append(out, len(c))
	}
	return out
}

// TestRestoredLogCrossesChunks: appends after a restore of 40 records
// grow the last chunk to full and go on into chunk 2, and every index
// reads the record appended there.
func TestRestoredLogCrossesChunks(t *testing.T) {
	l := restored(t, 40)
	total := 2*chunkSize + 10
	fill(l, 40, total-40)
	if l.Len() != total || !slices.Equal(lens(l), []int{chunkSize, chunkSize, chunkSize}) {
		t.Fatalf("after %d events the chunks are %v", l.Len(), lens(l))
	}
	for i := 0; i < total; i++ {
		if got, w := l.rec(i).event(), want(i); got != w {
			t.Fatalf("record %d reads %v, want %v", i, got, w)
		}
	}
}

// TestReadersAcrossGrowth: a Cursor opened before a restored log's chunk
// grows reads on through the growth, and it and a Query return the same
// events, in emission order.
func TestReadersAcrossGrowth(t *testing.T) {
	l := restored(t, 40)
	cur := l.Cursor()
	var got []Event
	for i := 0; i < 30; i++ {
		e, _ := cur.Next()
		got = append(got, e)
	}
	before := l.Query().Events()
	fill(l, 40, chunkSize) // grows 40 → 80 → 160 → 256, then chunk 2
	for e, ok := cur.Next(); ok; e, ok = cur.Next() {
		got = append(got, e)
	}
	all := l.Query().Events()
	if !slices.Equal(got, all) || !slices.Equal(before, all[:40]) {
		t.Fatalf("the cursor read %d events, the query %d; they differ", len(got), len(all))
	}
	for i, e := range all {
		if e != want(i) {
			t.Fatalf("event %d is %v, want %v", i, e, want(i))
		}
	}
}

// TestRestoredLogConcurrentReaders: emits on a restored log while a
// Cursor and a Query read it. Under -race (CI's short race step) a reader
// that touched a chunk outside the lock while a growth moves it fails.
func TestRestoredLogConcurrentReaders(t *testing.T) {
	l := restored(t, 40)
	const total = 40 + 3*chunkSize
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		src := InternSource("press/storage")
		for i := 40; i < total; i++ {
			l.EmitID(time.Duration(i)*time.Millisecond, src, KDetect, 0, "concurrent")
		}
	}()
	var read int
	go func() {
		defer wg.Done()
		cur := l.Cursor()
		last := time.Duration(-1)
		for read < total {
			if e, ok := cur.Next(); ok {
				if e.At <= last {
					t.Errorf("cursor read %v after %v", e.At, last)
					return
				}
				last = e.At
				read++
			}
		}
	}()
	go func() {
		defer wg.Done()
		for l.Len() < total {
			if n := l.Query().Kind(KDetect).Count(); n > total {
				t.Errorf("query counted %d events of %d", n, total)
				return
			}
		}
	}()
	wg.Wait()
	if read != total || l.Query().Count() != total {
		t.Fatalf("cursor read %d, query counts %d, want %d", read, l.Query().Count(), total)
	}
}

// TestRetiredLogArgIsRefused: format 7 keeps a record's second lazy
// argument, which no emit fills. A stream whose record fills it, or
// claims two arguments, is refused with a typed error instead of
// restoring a detail no event ever rendered.
func TestRetiredLogArgIsRefused(t *testing.T) {
	// blob is a one-record log as format 7 writes it: the string table,
	// the count, then at, a0, a1, detail, node, source, kind, nargs.
	blob := func(a1 int64, nargs uint64) []byte {
		var e snapio.Encoder
		e.Int(3)
		for _, s := range []string{"queue %d", "press/0", "detect"} {
			e.Str(s)
		}
		e.Int(1)
		e.I64(int64(time.Second))
		e.I64(17)
		e.I64(a1)
		e.Int(0)
		e.Int(2)
		e.Int(1)
		e.Int(2)
		e.U64(nargs)
		return e.Bytes()
	}
	var l Log
	l.EmitInt(time.Second, InternSource("press/0"), KDetect, 2, "queue %d", 17)
	x := &snapio.Ctx{Enc: &snapio.Encoder{}}
	l.SnapState(x)
	if !slices.Equal(x.Enc.Bytes(), blob(0, 1)) {
		t.Fatal("the hand-written record is not what SnapState writes")
	}
	back, err := load(blob(0, 1))
	if err != nil {
		t.Fatalf("loading the untouched record: %v", err)
	}
	if e, _ := back.Query().First(); e.Detail != "queue 17" {
		t.Fatalf("the restored record renders %q", e.Detail)
	}
	for _, c := range []struct {
		a1    int64
		nargs uint64
	}{{5, 1}, {0, 2}, {5, 2}, {0, 3}} {
		_, err := load(blob(c.a1, c.nargs))
		var se *snapio.SnapError
		if !errors.As(err, &se) || !strings.Contains(se.Msg, "second argument") {
			t.Errorf("a record with a1=%d, nargs=%d: %v, want a *snapio.SnapError about a second argument", c.a1, c.nargs, err)
		}
	}
	if _, err := load(blob(0, 0)); err != nil {
		t.Errorf("a literal record: %v", err)
	}
}

// TestTrimKeepsEveryRecord: Trim cuts the last chunk to its records — a
// restored chunk that doubled, a fresh chunk's room, a full chunk left
// alone, an empty log untouched — keeps every record where it was, and
// the next append still lands, growing the cut chunk by doubling.
func TestTrimKeepsEveryRecord(t *testing.T) {
	grown := restored(t, 40)
	fill(grown, 40, 30) // 70 records in a chunk doubled to 80
	freshFull, freshPart := &Log{}, &Log{}
	fill(freshFull, 0, chunkSize)
	fill(freshPart, 0, chunkSize+44)
	for _, c := range []struct {
		name string
		l    *Log
		want []int // chunk lengths after Trim
	}{
		{"restored short chunk", grown, []int{70}},
		{"restored exact chunk", restored(t, 67), []int{67}},
		{"full chunk", freshFull, []int{chunkSize}},
		{"fresh chunk's room", freshPart, []int{chunkSize, 44}},
		{"empty log", &Log{}, nil},
	} {
		n := c.l.Len()
		before := c.l.Dump()
		c.l.Trim()
		if !slices.Equal(lens(c.l), c.want) {
			t.Fatalf("%s: chunks %v after Trim, want %v", c.name, lens(c.l), c.want)
		}
		if c.l.Len() != n || c.l.Dump() != before {
			t.Fatalf("%s: Trim changed the records", c.name)
		}
		fill(c.l, n, 1)
		if c.l.Len() != n+1 {
			t.Fatalf("%s: an append after Trim left %d records, want %d", c.name, c.l.Len(), n+1)
		}
		if got, w := c.l.rec(n).event(), want(n); got != w {
			t.Fatalf("%s: the append after Trim reads %v, want %v", c.name, got, w)
		}
		if c.l.Dump() != before+want(n).String()+"\n" {
			t.Fatalf("%s: the records before the append moved", c.name)
		}
	}
}
