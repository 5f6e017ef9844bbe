package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file turns a pprof CPU profile into per-layer self time. The decoder
// reads only what attribution needs from the profile.proto wire format —
// samples, locations with their inlined lines, functions and the string
// table — with the standard library alone.

// layers lists every layer a CPU sample can be charged to, in report order.
var layers = []string{
	"eventq", "sim", "sim.pdes", "hv", "sched.dpwrap", "sched.rtxen", "sched.credit",
	"guest", "workload", "metrics", "trace", "cluster", "runner", "support",
	"go.alloc", "go.gc", "go.sched", "other",
}

// packageLayers maps a package under rtvirt/internal/ to its layer. A
// program package missing here (core, csa, ...) is charged to other.
var packageLayers = map[string]string{
	"eventq":       "eventq",
	"sim":          "sim",
	"hv":           "hv",
	"sched/dpwrap": "sched.dpwrap",
	"sched/rtxen":  "sched.rtxen",
	"sched/credit": "sched.credit",
	"guest":        "guest",
	"workload":     "workload",
	"metrics":      "metrics",
	"trace":        "trace",
	"cluster":      "cluster",
	"runner":       "runner",
	"task":         "support",
	"simtime":      "support",
	"dist":         "support",
	"clone":        "support",
}

// pdesNames are the sim package's PDES types and helpers: their methods
// and functions are charged to sim.pdes, the rest of the package to sim.
var pdesNames = map[string]bool{
	"ShardSet": true, "Shard": true, "shardHeap": true,
	"msgLess": true, "satAddDur": true, "edgeKey": true,
}

// Runtime functions by name prefix. GC is tested first, so sweeping and
// assists reached from the allocator count as GC.
var (
	runtimeGC = []string{"gc", "scan", "markroot", "greyobject", "findObject", "shade",
		"sweep", "bgsweep", "bgscavenge", "wbBuf", "bulkBarrier", "deductAssist", "_GC",
		"markBits", "typePointers", "(*gc", "(*sweepLocked)", "(*mspan).sweep",
		"(*mspan).typePointers", "(*scavengerState)", "(*pageAlloc).scavenge", "(*mheap).reclaim"}
	runtimeAlloc = []string{"mallocgc", "newobject", "newarray", "makeslice", "makemap",
		"growslice", "rawstring", "rawbyteslice", "concatstring", "slicebytetostring",
		"nextFreeFast", "heapSetType", "heapBits", "writeHeapBits", "persistentalloc",
		"mProf", "profilealloc", "(*mcache)", "(*mcentral)", "(*mheap)", "(*mspan)",
		"(*pageAlloc)", "(*fixalloc)", "(*writeHeapBits)"}
	runtimeSched = []string{"schedule", "findRunnable", "park_m", "gopark", "goready",
		"ready", "mcall", "futex", "notesleep", "notetsleep", "notewakeup", "stopm",
		"startm", "wakep", "handoffp", "runq", "stealWork", "procyield", "osyield",
		"usleep", "lock", "unlock", "semacquire", "semrelease", "gosched", "Gosched",
		"execute", "checkTimers", "netpoll", "sysmon", "mPark", "chansend", "chanrecv",
		"selectgo", "goexit", "mstart", "newproc", "casgstatus", "resetspinning",
		"acquirep", "releasep", "entersyscall", "exitsyscall", "notifyList", "(*timers)"}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// splitFunc splits a symbol such as "rtvirt/internal/sim.(*ShardSet).RunUntil"
// into its package path and the rest.
func splitFunc(fn string) (pkg, rest string) {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn, ""
	}
	return fn[:slash+1+dot], fn[slash+2+dot:]
}

// frameLayer classifies one frame. ok is false for a helper frame, such as
// memmove or a map lookup, whose cost belongs to its caller.
func frameLayer(fn string) (layer string, ok bool) {
	pkg, rest := splitFunc(fn)
	switch {
	case strings.HasPrefix(pkg, "rtvirt/internal/"):
		p := strings.TrimPrefix(pkg, "rtvirt/internal/")
		l, known := packageLayers[p]
		if !known {
			return "other", true
		}
		if l == "sim" {
			recv := strings.TrimPrefix(rest, "(*")
			if i := strings.IndexAny(recv, ").["); i >= 0 {
				recv = recv[:i]
			}
			if pdesNames[recv] {
				return "sim.pdes", true
			}
		}
		return l, true
	case pkg == "runtime":
		switch {
		case hasAnyPrefix(rest, runtimeGC):
			return "go.gc", true
		case hasAnyPrefix(rest, runtimeAlloc):
			return "go.alloc", true
		case hasAnyPrefix(rest, runtimeSched):
			return "go.sched", true
		}
		return "", false
	case pkg == "sync":
		return "go.sched", true
	case pkg == "main" || strings.HasPrefix(pkg, "rtvirt"):
		return "other", true
	}
	// The rest of the standard library: helpers of their caller.
	return "", false
}

// stackLayer charges a sample, given leaf first, to the first frame that
// classifies; a stack of helpers alone is charged to other.
func stackLayer(stack []string) string {
	for _, fn := range stack {
		if l, ok := frameLayer(fn); ok {
			return l
		}
	}
	return "other"
}

// sample is one CPU profile sample: its CPU time and its stack as function
// names, leaf first, with inlined frames expanded.
type sample struct {
	ns    int64
	stack []string
}

// layerTimes decodes a gzipped CPU profile and sums each layer's CPU time.
// Every layer is present in the result.
func layerTimes(profile []byte) (map[string]int64, error) {
	samples, err := decodeProfile(profile)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	for _, s := range samples {
		out[stackLayer(s.stack)] += s.ns
	}
	return out, nil
}

var errMalformed = errors.New("malformed pprof profile")

// pbField is one protobuf field: v holds a varint or fixed-width value,
// data a length-delimited one.
type pbField struct {
	num  int
	wire uint64
	v    uint64
	data []byte
}

// pbFields calls fn for each field of the protobuf message b.
func pbFields(b []byte, fn func(f pbField) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errMalformed
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: key & 7}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return errMalformed
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errMalformed
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errMalformed
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errMalformed
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errMalformed
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// appendInts appends a repeated integer field, packed or not.
func appendInts(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire != 2 {
		return append(dst, f.v), nil
	}
	for b := f.data; len(b) > 0; {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errMalformed
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}

// decodeProfile reads the samples of a gzipped pprof CPU profile.
func decodeProfile(profile []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("reading profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading profile: %w", err)
	}
	type pbSample struct{ locs, vals []uint64 }
	var (
		strs       []string
		types      []uint64                // sample_type: string index of each value's type
		funcName   = map[uint64]uint64{}   // function id -> name string index
		locFuncs   = map[uint64][]uint64{} // location id -> function ids, innermost first
		rawSamples []pbSample
	)
	err = pbFields(raw, func(f pbField) error {
		var err error
		switch f.num {
		case 1: // sample_type
			err = pbFields(f.data, func(g pbField) error {
				if g.num == 1 {
					types = append(types, g.v)
				}
				return nil
			})
		case 2: // sample
			var s pbSample
			err = pbFields(f.data, func(g pbField) error {
				var err error
				switch g.num {
				case 1:
					s.locs, err = appendInts(s.locs, g)
				case 2:
					s.vals, err = appendInts(s.vals, g)
				}
				return err
			})
			rawSamples = append(rawSamples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err = pbFields(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line
					return pbFields(g.data, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			err = pbFields(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
				return nil
			})
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(f.data))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, t := range types {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, fmt.Errorf("%w: no cpu sample type", errMalformed)
	}
	out := make([]sample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		if cpu >= len(rs.vals) {
			return nil, fmt.Errorf("%w: sample without a cpu value", errMalformed)
		}
		s := sample{ns: int64(rs.vals[cpu])}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				s.stack = append(s.stack, str(funcName[fn]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}
