package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
)

// repoPackages are the packages host time and allocation are attributed
// to; "driver" is this benchmark's own code.
var repoPackages = []string{
	"vtime", "simnet", "simdisk", "fs", "shadow", "lockmgr", "tpc", "cluster",
	"core", "proc", "placement", "trace", "telemetry", "stats",
}

// cpuBuckets are the cpu_share.* suffixes: the repo packages, the driver,
// and three buckets for stacks with no repo frame on them.
var cpuBuckets = append(append([]string{}, repoPackages...), "driver", "go_sched", "go_gc", "go_other")

// packageOf maps a symbol name to one of repoPackages, "driver", or "".
func packageOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "driver"
	}
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i > 0 {
		for _, p := range repoPackages {
			if p == rest[:i] {
				return p
			}
		}
	}
	return ""
}

// bucketOf folds one stack (innermost frame first) to a bucket: the
// innermost frame of a listed package, or, for a stack the Go runtime
// owns outright, whether it is the scheduler, the collector or neither.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if p := packageOf(fn); p != "" {
			return p
		}
	}
	for _, fn := range stack {
		switch fn {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcMarkTermination", "runtime.gcMarkDone":
			return "go_gc"
		}
	}
	for _, fn := range stack {
		switch fn {
		case "runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.goexit0",
			"runtime.mstart", "runtime.sysmon", "runtime.goschedImpl", "runtime.gopreempt_m", "runtime.mcall":
			return "go_sched"
		}
	}
	return "go_other"
}

// cpuShares folds a CPU profile into cpu_share.<bucket>: each bucket's
// share of the CPU time sampled during the traced window.
func cpuShares(m map[string]float64, gz []byte) error {
	samples, err := decodeProfile(gz)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	by := map[string]float64{}
	var total float64
	for _, s := range samples {
		by[bucketOf(s.stack)] += float64(s.value)
		total += float64(s.value)
	}
	for _, b := range cpuBuckets {
		m["cpu_share."+b] = 0
		if total > 0 {
			m["cpu_share."+b] = by[b] / total
		}
	}
	return nil
}

// allocBytesByPackage snapshots the runtime's sampled allocation profile
// folded to buckets, plus the grand total under "".  The profile trails
// the collector by up to two cycles, hence the two collections.
func allocBytesByPackage() map[string]float64 {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	by := map[string]float64{}
	var stack []string
	for i := range recs {
		stack = stack[:0]
		frames := runtime.CallersFrames(recs[i].Stack())
		for {
			fr, more := frames.Next()
			stack = append(stack, fr.Function)
			if !more {
				break
			}
		}
		b := float64(recs[i].AllocBytes)
		by[bucketOf(stack)] += b
		by[""] += b
	}
	return by
}

// allocShares reports alloc_share.<package>: the share of all bytes
// allocated between two snapshots whose innermost repo frame is in that
// package.
func allocShares(m map[string]float64, before, after map[string]float64) {
	total := after[""] - before[""]
	for _, p := range repoPackages {
		m["alloc_share."+p] = 0
		if total > 0 {
			m["alloc_share."+p] = (after[p] - before[p]) / total
		}
	}
}

// ---- a minimal reader for the pprof protobuf (profile.proto) ----

// profSample is one profile sample: the stack's function names, innermost
// first (inlined frames expanded), and the last sample value (CPU ns).
type profSample struct {
	stack []string
	value int64
}

var errTruncated = errors.New("truncated protobuf")

// pbField reads one field header and its payload from b.  For wire type 0
// the value is in v; for wire type 2 the bytes are in data.
func pbField(b []byte) (num int, wire int, v uint64, data, rest []byte, err error) {
	key, b, err := pbVarint(b)
	if err != nil {
		return 0, 0, 0, nil, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, b, err = pbVarint(b)
	case 1:
		if len(b) < 8 {
			return 0, 0, 0, nil, nil, errTruncated
		}
		b = b[8:]
	case 2:
		var n uint64
		if n, b, err = pbVarint(b); err == nil {
			if uint64(len(b)) < n {
				return 0, 0, 0, nil, nil, errTruncated
			}
			data, b = b[:n], b[n:]
		}
	case 5:
		if len(b) < 4 {
			return 0, 0, 0, nil, nil, errTruncated
		}
		b = b[4:]
	default:
		err = fmt.Errorf("unsupported protobuf wire type %d", wire)
	}
	return num, wire, v, data, b, err
}

func pbVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// pbUints appends a repeated integer field's values, packed or not.
func pbUints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		var err error
		if v, data, err = pbVarint(data); err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// decodeProfile parses a gzipped pprof profile into samples with
// symbolised stacks.
func decodeProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		strs      []string
		locLines  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> string index of its name
	)
	for b := raw; len(b) > 0; {
		num, wire, _, data, rest, err := pbField(b)
		if err != nil {
			return nil, err
		}
		b = rest
		if wire != 2 {
			continue
		}
		switch num {
		case 2: // Sample
			var s rawSample
			for d := data; len(d) > 0; {
				n, w, v, sub, r, err := pbField(d)
				if err != nil {
					return nil, err
				}
				d = r
				switch n {
				case 1:
					if s.locs, err = pbUints(s.locs, w, v, sub); err != nil {
						return nil, err
					}
				case 2:
					if s.values, err = pbUints(s.values, w, v, sub); err != nil {
						return nil, err
					}
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for d := data; len(d) > 0; {
				n, _, v, sub, r, err := pbField(d)
				if err != nil {
					return nil, err
				}
				d = r
				switch n {
				case 1:
					id = v
				case 4: // Line
					for l := sub; len(l) > 0; {
						ln, _, lv, _, lr, err := pbField(l)
						if err != nil {
							return nil, err
						}
						l = lr
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locLines[id] = fns
		case 5: // Function
			var id, name uint64
			for d := data; len(d) > 0; {
				n, _, v, _, r, err := pbField(d)
				if err != nil {
					return nil, err
				}
				d = r
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{value: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}
