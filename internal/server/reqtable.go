package server

import (
	"cmp"
	"slices"
)

// reqTable holds the in-flight requests by id. A server numbers its
// requests 1, 2, 3, …, so the low bits of an id spread perfectly and the
// table is direct-mapped by them: a request sits in slot id&mask unless
// that slot belongs to a request a whole table-length older that is still
// alive, and then in the next free slot after it. Every routed request is
// put, looked up (the peer's reply, the client's close, the finish) and
// deleted once, which a map did with four hashes.
type reqTable struct {
	slots []*reqState // power-of-two length, never more than half full
	n     int
}

const reqTableMin = 64

// get returns request id, nil when it is not in flight.
func (t *reqTable) get(id uint64) *reqState {
	if t.n == 0 {
		return nil
	}
	mask := uint64(len(t.slots) - 1)
	for i := id & mask; ; i = (i + 1) & mask {
		st := t.slots[i]
		if st == nil || st.id == id {
			return st
		}
	}
}

// put adds st under st.id, which must not be in the table.
func (t *reqTable) put(st *reqState) {
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]*reqState, max(reqTableMin, 2*len(old)))
		for _, o := range old {
			if o != nil {
				t.place(o)
			}
		}
	}
	t.place(st)
	t.n++
}

func (t *reqTable) place(st *reqState) {
	mask := uint64(len(t.slots) - 1)
	i := st.id & mask
	for t.slots[i] != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = st
}

// del removes request id and reports whether it was there. What sat
// behind it in the same run of occupied slots moves up, so a lookup never
// has to step over a grave.
func (t *reqTable) del(id uint64) bool {
	if t.n == 0 {
		return false
	}
	mask := uint64(len(t.slots) - 1)
	i := id & mask
	for {
		st := t.slots[i]
		if st == nil {
			return false
		}
		if st.id == id {
			break
		}
		i = (i + 1) & mask
	}
	t.n--
	for j := i; ; {
		t.slots[i] = nil
		for {
			j = (j + 1) & mask
			st := t.slots[j]
			if st == nil {
				return true
			}
			// st may move up to the hole at i unless its own slot lies
			// after the hole, between i (exclusive) and j (inclusive).
			if (j-st.id)&mask >= (j-i)&mask {
				t.slots[i] = st
				i = j
				break
			}
		}
	}
}

// ascending lists the requests in id order: the order a snapshot writes
// them in and an exclusion reroutes them in.
func (t *reqTable) ascending() []*reqState {
	out := make([]*reqState, 0, t.n)
	for _, st := range t.slots {
		if st != nil {
			out = append(out, st)
		}
	}
	slices.SortFunc(out, func(a, b *reqState) int { return cmp.Compare(a.id, b.id) })
	return out
}
