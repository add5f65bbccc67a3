package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// Layers of the repository, in stack order, plus the Go runtime's share
// when no repository frame is on the stack and the harness itself.
var hostLayers = []string{
	"sim", "madeleine", "pm2", "isomalloc", "memory", "freelist", "core",
	"protocols", "trace", "dsmpm2", "apps", "bench", "go.sched", "go.gc", "go.other",
}

// allocLayers are the layers allocation counts are reported for; every
// other frame's allocations are folded into "other".
var allocLayers = []string{
	"sim", "madeleine", "pm2", "memory", "core", "protocols", "trace", "dsmpm2", "apps", "other",
}

// layerOf names the repository layer a function belongs to, or "" for a
// function outside the repository (runtime, standard library).
func layerOf(fn string) string {
	const internal = "dsmpm2/internal/"
	switch {
	case strings.HasPrefix(fn, internal+"apps/"):
		return "apps"
	case strings.HasPrefix(fn, internal):
		pkg := fn[len(internal):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		switch pkg {
		case "sim", "madeleine", "pm2", "isomalloc", "memory", "freelist", "core", "protocols", "trace":
			return pkg
		}
		return "bench" // internal/bench helpers the probes reuse
	case strings.HasPrefix(fn, "dsmpm2."):
		return "dsmpm2"
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "dsmpm2/benchmark."):
		return "bench"
	}
	return ""
}

// bucketOf charges one sampled stack (leaf first) to a layer: the nearest
// repository frame from the leaf, so that mallocgc, map probes and channel
// operations land on the layer that caused them. A stack with no
// repository frame is Go-runtime time: collector, scheduler, or other.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
			strings.HasPrefix(fn, "runtime.bgscavenge") || strings.HasPrefix(fn, "runtime.(*gc") {
			return "go.gc"
		}
	}
	for _, fn := range stack {
		switch fn {
		case "runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall",
			"runtime.goexit0", "runtime.gosched_m", "runtime.mstart", "runtime.goready", "runtime.ready":
			return "go.sched"
		}
	}
	return "go.other"
}

// hostSeconds decodes a CPU profile written by runtime/pprof (gzipped
// profile.proto) and returns the sampled CPU seconds per layer.
func hostSeconds(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, loc := range s.locations {
			// A location's lines list inlined callees first.
			for _, fn := range p.locations[loc] {
				stack = append(stack, p.functions[fn])
			}
		}
		out[bucketOf(stack)] += float64(s.nanos) / 1e9
	}
	return out, nil
}

// allocProfileRate is the mean number of allocated bytes between two
// samples in the allocation-profiled child. Rate 1 (every object) would be
// exact, but costs ~4 us per object: 35 s on faultstorm's 7 M. At 512 a
// 48-byte object is sampled with probability 9%, which still leaves over
// half a million samples there, and the child runs in under twice its
// untraced time. The total is exact anyway (MemStats.Mallocs); only its
// split between layers is estimated.
const allocProfileRate = 512

// allocObjects estimates the heap objects allocated so far per layer from
// the runtime's memory profile, unsampling each record the way pprof does:
// an object of size s is sampled with probability 1 - exp(-s/rate).
func allocObjects() map[string]float64 {
	// The profile lags allocation by up to two collection cycles.
	runtime.GC()
	runtime.GC()
	recs := make([]runtime.MemProfileRecord, 1024)
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, 2*n)
	}
	out := make(map[string]float64)
	var stack []string
	for i := range recs {
		rec := &recs[i]
		if rec.AllocObjects == 0 {
			continue
		}
		stack = stack[:0]
		frames := runtime.CallersFrames(rec.Stack())
		for {
			f, more := frames.Next()
			stack = append(stack, f.Function)
			if !more {
				break
			}
		}
		size := float64(rec.AllocBytes) / float64(rec.AllocObjects)
		out[allocLayerOf(stack)] += float64(rec.AllocObjects) / -math.Expm1(-size/float64(runtime.MemProfileRate))
	}
	return out
}

func allocLayerOf(stack []string) string {
	l := bucketOf(stack)
	for _, known := range allocLayers {
		if l == known {
			return l
		}
	}
	return "other"
}

// The subset of profile.proto the attribution needs.
type cpuProfile struct {
	samples   []cpuSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]string   // function id -> name
}

type cpuSample struct {
	locations []uint64 // leaf first
	nanos     int64
}

// protoReader walks one protobuf message field by field.
type protoReader struct {
	b   []byte
	err error
}

func (r *protoReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			break
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	r.err = fmt.Errorf("cpu profile: truncated varint")
	r.b = nil
	return 0
}

// next returns the next field: its number, and either its varint value or
// its length-delimited bytes. ok is false at the end or on malformed input.
func (r *protoReader) next() (field int, val uint64, data []byte, ok bool) {
	if len(r.b) == 0 || r.err != nil {
		return 0, 0, nil, false
	}
	key := r.varint()
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		val = r.varint()
	case 1:
		r.skip(8)
	case 2:
		n := r.varint()
		if n > uint64(len(r.b)) {
			r.err = fmt.Errorf("cpu profile: field %d overruns its message", field)
			return 0, 0, nil, false
		}
		data, r.b = r.b[:n], r.b[n:]
	case 5:
		r.skip(4)
	default:
		r.err = fmt.Errorf("cpu profile: unsupported wire type %d", key&7)
	}
	return field, val, data, r.err == nil
}

func (r *protoReader) skip(n int) {
	if n > len(r.b) {
		r.err = fmt.Errorf("cpu profile: truncated fixed field")
		n = len(r.b)
	}
	r.b = r.b[n:]
}

// repeated reads a repeated integer field that may arrive packed or not.
func repeated(dst []uint64, val uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	r := protoReader{b: data}
	for len(r.b) > 0 {
		dst = append(dst, r.varint())
	}
	return dst, r.err
}

func decodeProfile(raw []byte) (*cpuProfile, error) {
	p := &cpuProfile{locations: make(map[uint64][]uint64), functions: make(map[uint64]string)}
	var strs []string
	funcName := make(map[uint64]uint64) // function id -> string index
	top := protoReader{b: raw}
	for {
		field, _, data, ok := top.next()
		if !ok {
			break
		}
		switch field {
		case 2: // Sample: location_id = 1, value = 2
			var s cpuSample
			var values []uint64
			var err error
			m := protoReader{b: data}
			for {
				f, v, d, ok := m.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					s.locations, err = repeated(s.locations, v, d)
				case 2:
					values, err = repeated(values, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			// runtime/pprof CPU samples are [count, nanoseconds].
			if len(values) == 2 {
				s.nanos = int64(values[1])
				p.samples = append(p.samples, s)
			}
		case 4: // Location: id = 1, line = 4 { function_id = 1 }
			var id uint64
			var fns []uint64
			m := protoReader{b: data}
			for {
				f, v, d, ok := m.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 4:
					line := protoReader{b: d}
					for {
						lf, lv, _, ok := line.next()
						if !ok {
							break
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			p.locations[id] = fns
		case 5: // Function: id = 1, name = 2 (string table index)
			var id, name uint64
			m := protoReader{b: data}
			for {
				f, v, _, ok := m.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(data))
		}
	}
	if top.err != nil {
		return nil, top.err
	}
	for id, idx := range funcName {
		if idx >= uint64(len(strs)) {
			return nil, fmt.Errorf("cpu profile: function %d names string %d of %d", id, idx, len(strs))
		}
		p.functions[id] = strs[idx]
	}
	return p, nil
}
