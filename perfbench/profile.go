package main

import (
	"bytes"
	"cmp"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// The CPU profile written by runtime/pprof is a gzipped profile.proto
// message. decodeProfile reads just what attribution needs — samples,
// locations, functions and the string table — with a minimal protobuf
// reader, since the module has no third-party dependencies.

type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	v, n := binary.Uvarint(p.b)
	if n <= 0 {
		return 0, errors.New("profile: bad varint")
	}
	p.b = p.b[n:]
	return v, nil
}

// field returns the next field's number and wire type, with its varint
// value or its length-delimited payload.
func (p *pbuf) field() (num int, wire int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, errors.New("profile: truncated fixed64")
		}
		v, p.b = binary.LittleEndian.Uint64(p.b), p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(p.b)) {
				return 0, 0, 0, nil, errors.New("profile: truncated field")
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, errors.New("profile: truncated fixed32")
		}
		v, p.b = uint64(binary.LittleEndian.Uint32(p.b)), p.b[4:]
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", wire)
	}
	return num, wire, v, data, err
}

// uints appends a repeated uint64 field's values, packed or not.
func uints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire != 2 {
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

type profSample struct {
	locs  []uint64
	value int64 // first sample value: the sample count
}

// cpuProfile holds a decoded profile's samples as leaf-first stacks of
// function names.
type cpuProfile struct {
	stacks  [][]string
	weights []int64
}

func decodeProfile(r io.Reader) (*cpuProfile, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		samples []profSample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
	)
	p := pbuf{raw}
	for len(p.b) > 0 {
		num, _, _, data, err := p.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // sample
			var s profSample
			var vals []uint64
			q := pbuf{data}
			for len(q.b) > 0 {
				n, w, v, d, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = uints(s.locs, w, v, d)
				case 2:
					vals, err = uints(vals, w, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			if len(vals) > 0 {
				s.value = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			q := pbuf{data}
			for len(q.b) > 0 {
				n, _, v, d, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // line: function_id is field 1
					l := pbuf{d}
					for len(l.b) > 0 {
						ln, _, lv, _, err := l.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locs[id] = fns
		case 5: // function
			var id, name uint64
			q := pbuf{data}
			for len(q.b) > 0 {
				n, _, v, _, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	prof := &cpuProfile{}
	for _, s := range samples {
		var stack []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		prof.stacks = append(prof.stacks, stack)
		prof.weights = append(prof.weights, s.value)
	}
	return prof, nil
}

// pkgOf returns a symbol's package path: "carat/internal/sim" for
// "carat/internal/sim.(*Env).runLoop", "iter" for "iter.Pull[...].func1".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// moduleGroups maps the simulator's packages onto the layers the benchmark
// reports; the remaining carat packages keep their own names, and the
// benchmark's own main package is bench.
var moduleGroups = map[string]string{
	"carat/internal/sim":      "sim",
	"carat/internal/testbed":  "testbed",
	"carat/internal/lock":     "lock",
	"carat/internal/cc":       "cc",
	"carat/internal/cc/occ":   "cc",
	"carat/internal/cc/quecc": "cc",
	"carat/internal/tso":      "cc",
	"carat/internal/probe":    "cc",
	"carat/internal/stats":    "stats",
	"carat/internal/wal":      "wal",
	"carat/internal/comm":     "comm",
	"carat/internal/core":     "core",
	"carat/internal/mva":      "core",
}

// gcPrefixes name the runtime's collector and allocator; a sample under
// any of them is charged to gc, whoever called the allocation.
var gcPrefixes = []string{
	"runtime.mallocgc", "runtime.gc", "runtime.mark", "runtime.scan", "runtime.sweep",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.greyobject", "runtime.newobject",
	"runtime.makeslice", "runtime.growslice", "runtime.makemap", "runtime.newarray",
	"runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*gcWork)",
	"runtime.(*mspan)", "runtime.(*sweepLocked)", "runtime.wbBuf", "runtime.bulkBarrier",
	"runtime.(*pageAlloc)", "runtime.(*scavenger", "runtime.(*gcControllerState)",
}

// classify charges one leaf-first stack to a layer. Walking up from the
// leaf, the collector and allocator are gc, the iter.Pull coroutine switch
// is coro, and the first frame in a carat package names the layer; other
// standard-library frames (map access, sorting, hashing) are charged to
// the carat caller that ran them. A stack with no carat frame is runtime.
// The benchmark's own calibration runs and the collections it forces
// between operations are not the simulator's cost: they classify as "".
func classify(stack []string) string {
	if slices.ContainsFunc(stack, func(fn string) bool { return strings.HasPrefix(fn, "main.calibrate") }) || slices.Contains(stack, "runtime.GC") {
		return ""
	}
	for _, fn := range stack {
		pkg := pkgOf(fn)
		switch {
		case pkg == "iter" || pkg == "runtime" && strings.Contains(fn, "coro"):
			return "coro"
		case pkg == "runtime" && slices.ContainsFunc(gcPrefixes, func(p string) bool { return strings.HasPrefix(fn, p) }):
			return "gc"
		case pkg == "main":
			return "bench"
		case strings.HasPrefix(pkg, "carat/"):
			if g, ok := moduleGroups[pkg]; ok {
				return g
			}
			return strings.TrimPrefix(pkg, "carat/internal/")
		}
	}
	return "runtime"
}

// attribution is a profile's host time share per layer, in percent of the
// samples charged to any layer.
type attribution struct {
	groups   []string // by descending share
	pct      map[string]float64
	samples  int64
	excluded int64 // calibration and forced collections
}

func attribute(prof *cpuProfile) attribution {
	a := attribution{pct: map[string]float64{}}
	counts := map[string]int64{}
	for i, st := range prof.stacks {
		g := classify(st)
		if g == "" {
			a.excluded += prof.weights[i]
			continue
		}
		counts[g] += prof.weights[i]
		a.samples += prof.weights[i]
	}
	for g, n := range counts {
		a.groups = append(a.groups, g)
		a.pct[g] = 100 * float64(n) / float64(a.samples)
	}
	slices.SortFunc(a.groups, func(x, y string) int {
		if c := cmp.Compare(a.pct[y], a.pct[x]); c != 0 {
			return c
		}
		return strings.Compare(x, y)
	})
	return a
}

// table renders the attribution as a Markdown table.
func (a attribution) table(title string) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "### %s\n\n%d CPU samples (100 Hz, all threads); %d more in the benchmark's calibration runs and forced collections are left out\n\n| layer | host %% |\n|---|---:|\n",
		title, a.samples, a.excluded)
	for _, g := range a.groups {
		fmt.Fprintf(&b, "| %s | %.1f |\n", g, a.pct[g])
	}
	return b.String()
}
