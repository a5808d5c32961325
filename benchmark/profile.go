package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A small decoder of the pprof profile proto (profile.proto): just enough
// to attribute each CPU sample to the package of its leaf frame, so the
// benchmark needs neither `go tool pprof` nor a module dependency. Field
// numbers are from github.com/google/pprof/proto/profile.proto.

// pbuf walks one protobuf message.
type pbuf struct{ b []byte }

var errTruncated = errors.New("profile: truncated message")

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// next returns the next field: its number, and either its varint value or
// its length-delimited bytes.
func (p *pbuf) next() (field int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, nil, errTruncated
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err != nil {
			return
		}
		if n > uint64(len(p.b)) {
			return 0, 0, nil, errTruncated
		}
		data, p.b = p.b[:n], p.b[n:]
	case 5:
		if len(p.b) < 4 {
			return 0, 0, nil, errTruncated
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", key&7)
	}
	return
}

// packed decodes a repeated varint field, packed or not.
func packed(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	p := pbuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// stackSample is one profile sample: its call stack as function names,
// leaf first, and its value in the profile's last sample type (CPU
// nanoseconds for a CPU profile).
type stackSample struct {
	stack []string
	value int64
}

// decodeProfile parses a gzipped pprof profile into samples.
func decodeProfile(gz []byte) ([]stackSample, error) {
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
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf-most inline first
		fnName  = map[uint64]uint64{}   // function id -> string index
		strs    []string
	)
	p := pbuf{raw}
	for len(p.b) > 0 {
		field, _, data, err := p.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample
			var s rawSample
			m := pbuf{data}
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					if s.locs, err = packed(s.locs, v, d); err != nil {
						return nil, err
					}
				case 2:
					if s.vals, err = packed(s.vals, v, d); err != nil {
						return nil, err
					}
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			m := pbuf{data}
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					l := pbuf{d}
					for len(l.b) > 0 {
						lf, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFns[id] = fns
		case 5: // Function
			var id, name uint64
			m := pbuf{data}
			for len(m.b) > 0 {
				f, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		ss := stackSample{value: int64(s.vals[len(s.vals)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if idx := fnName[fn]; idx < uint64(len(strs)) {
					ss.stack = append(ss.stack, strs[idx])
				}
			}
		}
		if len(ss.stack) > 0 {
			out = append(out, ss)
		}
	}
	return out, nil
}

// layerOfPackage maps an import path to the benchmark's layer names. The
// kernels layer is the eight packages that model the two kernels and
// their processes.
func layerOfPackage(pkg string) string {
	const prefix = "repro/internal/"
	if !strings.HasPrefix(pkg, prefix) {
		return ""
	}
	switch name := strings.TrimPrefix(pkg, prefix); name {
	case "sim", "fabric", "hfi", "psm", "mpi", "mem", "pagetable", "cluster", "runner", "trace":
		return name
	case "linux", "mckernel", "ihk", "core", "kernel", "kmem", "kstruct", "uproc":
		return "kernels"
	}
	return ""
}

// packageOf returns the import path of a fully qualified Go function name
// ("repro/internal/sim.(*Engine).Run" -> "repro/internal/sim").
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold import paths of their own
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// runtimeClass splits samples whose leaf is in the Go runtime by what the
// runtime was doing, judged from the whole stack: collecting garbage,
// allocating, moving bytes, hashing into maps (the per-frame pin counts
// and frame tables are Go maps), or scheduling goroutines (parking,
// waking, channel handoff, futex).
func runtimeClass(stack []string) string {
	has := func(names ...string) bool {
		for _, fn := range stack {
			for _, n := range names {
				if fn == n {
					return true
				}
			}
		}
		return false
	}
	leaf := stack[0]
	switch {
	case has("runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.sweepone",
		"runtime.wbBufFlush", "runtime.gcDrain"):
		return "runtime.gc_pct"
	case leaf == "runtime.memmove" || leaf == "runtime.memclrNoHeapPointers":
		return "runtime.memmove_pct"
	case has("runtime.mallocgc", "runtime.growslice", "runtime.newobject", "runtime.makeslice"):
		return "runtime.alloc_pct"
	case strings.HasPrefix(leaf, "internal/runtime/maps.") || strings.HasPrefix(leaf, "runtime.map") ||
		strings.HasPrefix(leaf, "runtime.memhash") || strings.HasPrefix(leaf, "runtime.aeshash"):
		return "runtime.map_pct"
	case has("runtime.schedule", "runtime.park_m", "runtime.mcall", "runtime.gopark", "runtime.goready",
		"runtime.ready", "runtime.chanrecv", "runtime.chansend", "runtime.selectgo", "runtime.goexit0",
		"runtime.newproc", "runtime.futex", "runtime.findRunnable", "runtime.wakep", "runtime.mstart",
		"runtime.semacquire1", "runtime.semrelease1", "runtime.gosched_m", "runtime.goschedImpl"):
		return "runtime.sched_pct"
	}
	return "runtime.other_pct"
}

// attributeProfile groups the samples of the given profiles (one per
// traced unit) by the layer of their leaf frame into *.host_self_pct and
// runtime.*_pct shares of all samples. It fails rather than report zeros
// when a profile cannot be read or there are no samples at all.
func attributeProfile(profiles [][]byte) (map[string]float64, error) {
	var samples []stackSample
	for _, gz := range profiles {
		s, err := decodeProfile(gz)
		if err != nil {
			return nil, err
		}
		samples = append(samples, s...)
	}
	var total int64
	sum := make(map[string]int64)
	for _, s := range samples {
		total += s.value
		pkg := packageOf(s.stack[0])
		switch {
		case layerOfPackage(pkg) != "":
			sum[layerOfPackage(pkg)+".host_self_pct"] += s.value
		case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") ||
			pkg == "internal/bytealg" || pkg == "sync" || pkg == "sync/atomic" || strings.HasPrefix(pkg, "internal/"):
			sum[runtimeClass(s.stack)] += s.value
		default:
			sum["other.host_self_pct"] += s.value
		}
	}
	if total == 0 {
		return nil, errors.New("profile: no CPU samples (run too short, or profiling unavailable)")
	}
	out := make(map[string]float64)
	for _, name := range profileMetrics {
		out[name] = 100 * float64(sum[name]) / float64(total)
	}
	return out, nil
}

// profileMetrics are the shares attributeProfile reports; they sum to 100.
var profileMetrics = []string{
	"sim.host_self_pct", "fabric.host_self_pct", "hfi.host_self_pct", "psm.host_self_pct",
	"mpi.host_self_pct", "mem.host_self_pct", "pagetable.host_self_pct", "kernels.host_self_pct",
	"cluster.host_self_pct", "runner.host_self_pct", "trace.host_self_pct", "other.host_self_pct",
	"runtime.sched_pct", "runtime.gc_pct", "runtime.alloc_pct", "runtime.memmove_pct", "runtime.map_pct", "runtime.other_pct",
}
