package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A stdlib-only reader for the gzipped profile.proto that runtime/pprof
// writes, keeping only what the layer table needs: per sample its value
// and the function names of its stack, leaf first.

type profSample struct {
	stack []string // function names, leaf first (inlined frames expanded)
	value int64    // last sample value: cpu nanoseconds for a CPU profile
}

type pbuf struct {
	b   []byte
	err error
}

func (p *pbuf) varint() uint64 {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = io.ErrUnexpectedEOF
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x
		}
	}
	p.err = errors.New("varint overflows 64 bits")
	return 0
}

// field reads one field header and its payload: v for varint fields,
// data for length-delimited ones. Fixed-width fields are skipped.
func (p *pbuf) field() (num int, wire int, v uint64, data []byte) {
	key := p.varint()
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v = p.varint()
	case 1:
		p.skip(8)
	case 2:
		n := p.varint()
		if p.err == nil && n > uint64(len(p.b)) {
			p.err = io.ErrUnexpectedEOF
		}
		if p.err == nil {
			data, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		p.skip(4)
	default:
		p.err = fmt.Errorf("unsupported wire type %d", wire)
	}
	return
}

func (p *pbuf) skip(n int) {
	if len(p.b) < n {
		p.err = io.ErrUnexpectedEOF
		return
	}
	p.b = p.b[n:]
}

// repeated appends a repeated integer field's values, packed or not.
func repeated(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	p := pbuf{b: data}
	for len(p.b) > 0 && p.err == nil {
		dst = append(dst, p.varint())
	}
	return dst, p.err
}

// parseProfile decodes a gzipped pprof profile.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]uint64{}   // function id -> name string index
		strs    []string
	)
	p := pbuf{b: raw}
	for len(p.b) > 0 && p.err == nil {
		num, _, _, data := p.field()
		switch num {
		case 2: // Sample
			var s rawSample
			q := pbuf{b: data}
			for len(q.b) > 0 && q.err == nil {
				n, w, v, d := q.field()
				switch n {
				case 1:
					s.locs, q.err = repeated(s.locs, w, v, d)
				case 2:
					s.vals, q.err = repeated(s.vals, w, v, d)
				}
			}
			p.err = q.err
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			q := pbuf{b: data}
			for len(q.b) > 0 && q.err == nil {
				n, _, v, d := q.field()
				switch n {
				case 1:
					id = v
				case 4: // Line
					l := pbuf{b: d}
					for len(l.b) > 0 && l.err == nil {
						if ln, _, lv, _ := l.field(); ln == 1 {
							fns = append(fns, lv)
						}
					}
					q.err = l.err
				}
			}
			p.err = q.err
			locs[id] = fns
		case 5: // Function
			var id, name uint64
			q := pbuf{b: data}
			for len(q.b) > 0 && q.err == nil {
				n, _, v, _ := q.field()
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			p.err = q.err
			funcs[id] = name
		case 6:
			strs = append(strs, string(data))
		}
	}
	if p.err != nil {
		return nil, fmt.Errorf("profile: %w", p.err)
	}

	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		ps := profSample{value: int64(s.vals[len(s.vals)-1])}
		for _, loc := range s.locs {
			for _, fn := range locs[loc] {
				if idx := funcs[fn]; idx < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		if len(ps.stack) > 0 {
			out = append(out, ps)
		}
	}
	return out, nil
}

// funcPackage returns the import path of a symbol as pprof names it:
// "press/internal/sim.(*Sim).Step" -> "press/internal/sim". Type
// arguments of generic instantiations carry slashes and dots of their
// own, so the name is cut at the first bracket before it is split.
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// pkgLayer maps the packages under press/internal to the layer names
// the metrics use; packages that only make sense together share one.
var pkgLayer = map[string]string{
	"sim": "sim", "simnet": "simnet", "machine": "machine", "server": "server",
	"simdisk": "simdisk", "workload": "workload", "trace": "trace", "metrics": "metrics",
	"membership": "membership", "frontend": "frontend", "qmon": "qmon", "fme": "fme",
	"harness": "harness", "faults": "harness", "template7": "harness", "avail": "harness",
	"chaos": "chaos", "snapshot": "snapshot", "snapio": "snapshot", "livenet": "livenet",
}

// layerOf assigns a leaf function to a layer. Everything the Go runtime
// does on the program's behalf (allocation, GC, scheduling, memmove,
// sync) is goruntime; socket and file system calls are
// livenet.net_syscall, because only the live workload makes them in any
// number; whatever is left (sort, math/rand, reflect, fmt, cnet's generic
// pools, pressbench itself) is other, so that the shares sum to 1.
func layerOf(fn string) string {
	pkg := funcPackage(fn)
	if rest, ok := strings.CutPrefix(pkg, "press/internal/"); ok {
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		if l, ok := pkgLayer[rest]; ok {
			return l
		}
		return "other"
	}
	switch {
	case pkg == "encoding/gob":
		return "livenet.gob"
	case pkg == "syscall", pkg == "net", pkg == "os", pkg == "internal/poll",
		strings.HasSuffix(pkg, "runtime/syscall"), strings.HasPrefix(pkg, "internal/syscall"):
		return "livenet.net_syscall"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime"),
		pkg == "sync", pkg == "sync/atomic", pkg == "internal/abi", pkg == "internal/bytealg",
		pkg == "internal/cpu", pkg == "internal/race", pkg == "internal/chacha8rand":
		return "goruntime"
	}
	return "other"
}

// shareLayers lists every layer that owns a cpu_share metric.
var shareLayers = []string{
	"sim", "simnet", "machine", "server", "simdisk", "workload", "trace", "metrics",
	"membership", "frontend", "qmon", "fme", "harness", "chaos", "snapshot",
	"livenet", "livenet.gob", "livenet.net_syscall", "goruntime", "other",
}

// gcFrames are the entry points of garbage-collector work; a sample with
// one of them anywhere in its stack is GC time.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true, "runtime.bgsweep": true, "runtime.bgscavenge": true,
	"runtime.gcStart": true, "runtime.gcMarkDone": true, "runtime.gcMarkTermination": true,
	"runtime.(*sweepLocked).sweep": true, "runtime.deductSweepCredit": true,
}

// cpuShares aggregates samples by the layer of their leaf frame. The
// returned shares sum to 1 over shareLayers; gc is the fraction of all
// samples spent in the collector (a subset of goruntime).
func cpuShares(samples []profSample) (shares map[string]float64, gc float64, total int64) {
	by := map[string]int64{}
	var gcNs int64
	for _, s := range samples {
		total += s.value
		by[layerOf(s.stack[0])] += s.value
		for _, fn := range s.stack {
			if gcFrames[fn] {
				gcNs += s.value
				break
			}
		}
	}
	shares = make(map[string]float64, len(shareLayers))
	if total == 0 {
		return shares, 0, 0
	}
	for _, l := range shareLayers {
		shares[l] = float64(by[l]) / float64(total)
	}
	return shares, float64(gcNs) / float64(total), total
}
