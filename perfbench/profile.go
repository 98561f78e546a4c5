package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// This file reads the CPU profile runtime/pprof writes (gzipped
// profile.proto) with a minimal protobuf decoder, because the module
// has no dependencies, and splits its self time into layers.

// layers are the per-layer buckets, in report order. Every sample
// lands in exactly one.
var layers = []string{
	"sim", "netem", "tcp", "packet", "analysis", "player", "service",
	"stats", "scenario", "runtime.gc", "runtime.malloc", "runtime.other",
}

// pkgLayer maps repro/internal/<pkg> to its layer.
var pkgLayer = map[string]string{
	"sim": "sim", "netem": "netem", "tcp": "tcp", "packet": "packet",
	"analysis": "analysis", "trace": "analysis",
	"player": "player", "abr": "player",
	"service": "service", "httpx": "service", "media": "service",
	"stats":    "stats",
	"scenario": "scenario", "session": "scenario", "runner": "scenario", "core": "scenario",
}

// gcFrames mark a sample as collector work wherever they appear on
// its stack (background marking, assists, sweeping, scavenging).
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.markroot"}

// funcPkg returns the import path of a symbol such as
// "repro/internal/sim.(*Scheduler).Run" or, for a generic,
// "repro/internal/netem.(*ring[go.shape.struct { ... }]).front".
func funcPkg(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndex(name, "/")
	if dot := strings.Index(name[slash+1:], "."); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// layerOf classifies a stack, leaf frame first. Self time goes to the
// leaf's package; runtime leaves split into collector, allocator and
// the rest, which also takes the standard library and the harness.
func layerOf(stack []string) string {
	if len(stack) == 0 {
		return "runtime.other"
	}
	for _, f := range stack {
		for _, g := range gcFrames {
			if f == g {
				return "runtime.gc"
			}
		}
	}
	pkg := funcPkg(stack[0])
	if l, ok := pkgLayer[strings.TrimPrefix(pkg, "repro/internal/")]; ok && strings.HasPrefix(pkg, "repro/internal/") {
		return l
	}
	if isRuntime(pkg) {
		for _, f := range stack {
			if f == "runtime.mallocgc" {
				return "runtime.malloc"
			}
		}
	}
	return "runtime.other"
}

// layerSplit returns CPU nanoseconds per layer and the samples taken,
// skipping samples labelled with skipKey=skipVal (harness work).
func layerSplit(gz []byte, skipKey, skipVal string) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	out := make(map[string]float64, len(layers))
	n := 0
	vi := p.sampleTypes - 1 // cpu nanoseconds is the last value
	for _, s := range p.samples {
		if s.labels[skipKey] == skipVal {
			continue
		}
		var stack []string
		for _, id := range s.locs {
			for _, fid := range p.locFuncs[id] {
				stack = append(stack, p.strs[p.funcName[fid]])
			}
		}
		if vi < 0 || vi >= len(s.values) {
			return nil, 0, errBadProfile
		}
		out[layerOf(stack)] += float64(s.values[vi])
		n += int(s.values[0])
	}
	return out, n, nil
}

type sample struct {
	locs   []uint64
	values []uint64
	labels map[string]string
}

type profile struct {
	sampleTypes int
	samples     []sample
	locFuncs    map[uint64][]uint64 // location → function ids, innermost first
	funcName    map[uint64]uint64   // function → string index
	strs        []string
}

var errBadProfile = errors.New("profile: malformed encoding")

// fields calls fn with the number, wire type and value of each field
// of the protobuf message b: the varint for wire type 0, the payload
// for wire type 2. Fixed-width fields are skipped.
func fields(b []byte, fn func(num int, wire, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errBadProfile
			}
			b = b[n:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errBadProfile
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 1, 5:
			w := 8
			if key&7 == 5 {
				w = 4
			}
			if len(b) < w {
				return errBadProfile
			}
			b = b[w:]
			continue
		default:
			return errBadProfile
		}
		if err := fn(int(key>>3), key&7, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated integer field, packed (wire type 2) or not.
func varints(dst []uint64, wire, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errBadProfile
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}

// parseProfile decodes the profile.proto fields the layer split needs:
// sample types (1), samples (2: location ids, values, labels),
// locations (4: id, lines with their function ids), functions (5: id,
// name) and the string table (6).
func parseProfile(raw []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]uint64{}}
	type label struct {
		sample   int
		key, str uint64
	}
	var labels []label
	err := fields(raw, func(num int, _, _ uint64, data []byte) error {
		switch num {
		case 1:
			p.sampleTypes++
		case 2:
			var s sample
			err := fields(data, func(num int, wire, v uint64, d []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = varints(s.locs, wire, v, d)
				case 2:
					s.values, err = varints(s.values, wire, v, d)
				case 3:
					l := label{sample: len(p.samples)}
					err = fields(d, func(num int, _, v uint64, _ []byte) error {
						switch num {
						case 1:
							l.key = v
						case 2:
							l.str = v
						}
						return nil
					})
					labels = append(labels, l)
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(data, func(num int, _, v uint64, d []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(d, func(num int, _, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := fields(data, func(num int, _, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := uint64(len(p.strs))
	for _, name := range p.funcName {
		if name >= n {
			return nil, errBadProfile
		}
	}
	for _, l := range labels {
		if l.key >= n || l.str >= n {
			return nil, errBadProfile
		}
		s := &p.samples[l.sample]
		if s.labels == nil {
			s.labels = map[string]string{}
		}
		s.labels[p.strs[l.key]] = p.strs[l.str]
	}
	return p, nil
}
