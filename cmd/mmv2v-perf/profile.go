package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU-share attribution. Each CPU profile sample is charged to the innermost
// frame of its stack that belongs to a repository module
// (mmv2v/internal/<module>), so a math or runtime leaf under
// world.(*World).RxPowerMw counts as world. Samples without any repository
// frame (GC workers, the scheduler) are charged to gcModule.

const gcModule = "runtime.gc"

// shareModules are the modules reported one by one as <module>.cpu_share;
// the remaining repository modules are reported together as other.
var shareModules = []string{
	"medium", "world", "channel", "des", "core", "baseline", "udt",
	"metrics", "geom", "phy", "traffic", "sim",
}

// moduleOf returns the repository module a profiled function belongs to,
// or "" when the function is outside mmv2v/internal.
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, "mmv2v/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// attribute returns the module one stack (leaf first) is charged to.
func attribute(stack []string) string {
	for _, fn := range stack {
		if m := moduleOf(fn); m != "" {
			return m
		}
	}
	return gcModule
}

// cpuShares accumulates profile weight (CPU nanoseconds) per module;
// modules keeps the charged modules in first-charged order.
type cpuShares struct {
	byModule map[string]int64
	modules  []string
	total    int64
}

func (c *cpuShares) add(module string, weight int64) {
	if c.byModule == nil {
		c.byModule = make(map[string]int64)
	}
	if _, ok := c.byModule[module]; !ok {
		c.modules = append(c.modules, module)
	}
	c.byModule[module] += weight
	c.total += weight
}

func (c *cpuShares) merge(o cpuShares) {
	for _, m := range o.modules {
		c.add(m, o.byModule[m])
	}
}

// share returns a module's fraction of all samples, 0 without samples.
func (c *cpuShares) share(module string) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.byModule[module]) / float64(c.total)
}

// otherShare is the fraction charged to repository modules outside
// shareModules.
func (c *cpuShares) otherShare() float64 {
	if c.total == 0 {
		return 0
	}
	rest := c.total - c.byModule[gcModule]
	for _, m := range shareModules {
		rest -= c.byModule[m]
	}
	return float64(rest) / float64(c.total)
}

// profileShares decodes a gzipped pprof CPU profile (as written by
// runtime/pprof) and attributes its samples.
func profileShares(data []byte) (cpuShares, error) {
	var out cpuShares
	if len(data) == 0 {
		return out, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return out, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return out, err
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return out, err
	}
	for _, s := range prof.samples {
		var stack []string
		for _, loc := range s.locations {
			for _, fn := range prof.locations[loc] {
				if name := prof.functions[fn]; name >= 0 && name < int64(len(prof.strings)) {
					stack = append(stack, prof.strings[name])
				}
			}
		}
		out.add(attribute(stack), s.weight)
	}
	return out, nil
}

// The subset of profile.proto the attribution needs.
type rawProfile struct {
	samples   []rawSample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name's string-table index
	strings   []string
}

type rawSample struct {
	locations []uint64 // leaf first
	weight    int64    // the sample's last value: CPU nanoseconds
}

func decodeProfile(b []byte) (*rawProfile, error) {
	p := &rawProfile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	r := pbReader{b: b}
	for r.more() {
		field, wire := r.key()
		switch {
		case field == 2 && wire == 2: // Sample
			var s rawSample
			sr := pbReader{b: r.bytes()}
			for sr.more() {
				f, w := sr.key()
				switch f {
				case 1:
					s.locations = sr.varints(w, s.locations)
				case 2:
					vs := sr.varints(w, nil)
					if len(vs) > 0 {
						s.weight = int64(vs[len(vs)-1])
					}
				default:
					sr.skip(w)
				}
			}
			if sr.err != nil {
				return nil, sr.err
			}
			p.samples = append(p.samples, s)
		case field == 4 && wire == 2: // Location
			var id uint64
			var fns []uint64
			lr := pbReader{b: r.bytes()}
			for lr.more() {
				f, w := lr.key()
				switch {
				case f == 1 && w == 0:
					id = lr.varint()
				case f == 4 && w == 2: // Line
					ln := pbReader{b: lr.bytes()}
					for ln.more() {
						lf, lw := ln.key()
						if lf == 1 && lw == 0 {
							fns = append(fns, ln.varint())
						} else {
							ln.skip(lw)
						}
					}
					if ln.err != nil {
						return nil, ln.err
					}
				default:
					lr.skip(w)
				}
			}
			if lr.err != nil {
				return nil, lr.err
			}
			p.locations[id] = fns
		case field == 5 && wire == 2: // Function
			var id uint64
			name := int64(-1)
			fr := pbReader{b: r.bytes()}
			for fr.more() {
				f, w := fr.key()
				switch {
				case f == 1 && w == 0:
					id = fr.varint()
				case f == 2 && w == 0:
					name = int64(fr.varint())
				default:
					fr.skip(w)
				}
			}
			if fr.err != nil {
				return nil, fr.err
			}
			p.functions[id] = name
		case field == 6 && wire == 2: // string_table
			p.strings = append(p.strings, string(r.bytes()))
		default:
			r.skip(wire)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return p, nil
}

// pbReader walks protobuf wire format; the first malformed read sticks in
// err and ends the walk.
type pbReader struct {
	b   []byte
	err error
}

var errTruncated = errors.New("profile: truncated protobuf")

func (r *pbReader) more() bool { return r.err == nil && len(r.b) > 0 }

func (r *pbReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.err = errTruncated
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	r.err = errTruncated
	return 0
}

func (r *pbReader) key() (field int, wire int) {
	k := r.varint()
	return int(k >> 3), int(k & 7)
}

func (r *pbReader) bytes() []byte {
	n := r.varint()
	if r.err != nil || n > uint64(len(r.b)) {
		r.err = errTruncated
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// varints reads a repeated integer field in either its packed (wire 2) or
// unpacked (wire 0) encoding.
func (r *pbReader) varints(wire int, dst []uint64) []uint64 {
	switch wire {
	case 0:
		return append(dst, r.varint())
	case 2:
		pr := pbReader{b: r.bytes()}
		for pr.more() {
			dst = append(dst, pr.varint())
		}
		if pr.err != nil {
			r.err = pr.err
		}
		return dst
	}
	r.skip(wire)
	return dst
}

func (r *pbReader) skip(wire int) {
	switch wire {
	case 0:
		r.varint()
	case 1:
		r.advance(8)
	case 2:
		r.bytes()
	case 5:
		r.advance(4)
	default:
		r.err = fmt.Errorf("profile: unsupported wire type %d", wire)
	}
}

func (r *pbReader) advance(n int) {
	if len(r.b) < n {
		r.err = errTruncated
		return
	}
	r.b = r.b[n:]
}
