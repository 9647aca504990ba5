package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modules lists the self-time buckets a CPU profile folds into, in
// report order. Every sample lands in exactly one, so the shares sum
// to 1.
var modules = []string{
	"sim", "cache", "hier", "dram", "nic", "pcie", "core", "cpu", "apps",
	"net", "flow", "pkt", "stats", "obs", "traffic", "idio", "runtime", "other",
}

// simPackages are the simulator's packages that have a bucket of
// their own (import path idio/internal/<name>).
var simPackages = map[string]bool{
	"sim": true, "cache": true, "hier": true, "dram": true, "nic": true,
	"pcie": true, "core": true, "cpu": true, "apps": true, "net": true,
	"flow": true, "pkt": true, "stats": true, "obs": true, "traffic": true,
}

// moduleOf maps a fully qualified Go function name, as a CPU profile
// records it, to its self-time bucket: the simulator package it
// belongs to, "idio" for the root facade, "runtime" for the Go
// runtime (garbage collector, scheduler, channels, sync), and "other"
// for everything else — the standard library and this benchmark.
func moduleOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case pkg == "idio":
		return "idio"
	case strings.HasPrefix(pkg, "idio/internal/"):
		name := strings.TrimPrefix(pkg, "idio/internal/")
		if simPackages[name] {
			return name
		}
		return "other"
	case pkg == "" || pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || pkg == "sync" || pkg == "sync/atomic":
		// Assembly stubs such as gcWriteBarrier carry no package.
		return "runtime"
	default:
		return "other"
	}
}

// packageOf returns the import path of a qualified function name:
// everything before the first '.' that follows the last '/'. Names
// without a '.' (assembly stubs) have no package.
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	return fn[:slash+1+dot]
}

// selfTime is a CPU profile folded by module: sample counts per
// bucket of the innermost function of each sample's leaf frame.
type selfTime struct {
	Samples  int64
	ByModule map[string]int64
}

// add accumulates another profile's samples.
func (s *selfTime) add(o selfTime) {
	if s.ByModule == nil {
		s.ByModule = make(map[string]int64, len(modules))
	}
	s.Samples += o.Samples
	for m, n := range o.ByModule {
		s.ByModule[m] += n
	}
}

// Share returns module m's fraction of all samples (0 with none).
func (s selfTime) Share(m string) float64 {
	return ratio(float64(s.ByModule[m]), float64(s.Samples))
}

// foldProfile parses a gzipped pprof CPU profile (as runtime/pprof
// writes it) and folds its flat samples by module.
func foldProfile(data []byte) (selfTime, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return selfTime{}, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return selfTime{}, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return selfTime{}, err
	}
	st := selfTime{ByModule: make(map[string]int64, len(modules))}
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		name := ""
		if loc, ok := p.locations[s.locs[0]]; ok && len(loc) > 0 {
			// Line entries run from the innermost inlined call outward.
			if fi, ok := p.functions[loc[0]]; ok && fi >= 0 && int(fi) < len(p.strings) {
				name = p.strings[fi]
			}
		}
		n := s.values[0]
		st.Samples += n
		st.ByModule[moduleOf(name)] += n
	}
	return st, nil
}

// profile holds the parts of a pprof profile.proto message needed for
// flat attribution.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// Field numbers of the profile.proto messages read here.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileString   = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, body []byte) error {
		switch num {
		case fProfileSample:
			var s sample
			err := eachField(body, func(num, wire int, v uint64, body []byte) error {
				switch num {
				case fSampleLocation:
					return appendVarints(&s.locs, wire, v, body)
				case fSampleValue:
					var vs []uint64
					if err := appendVarints(&vs, wire, v, body); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(body, func(num, wire int, v uint64, body []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(body, func(num, wire int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(body, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case fProfileString:
			p.strings = append(p.strings, string(body))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Protobuf wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wireVarint) and body (wireBytes).
func eachField(b []byte, fn func(num, wire int, v uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case wireVarint:
			v, n = varint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
		case wire64:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case wire32:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		case wireBytes:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, body []byte) error {
	if wire == wireVarint {
		*dst = append(*dst, v)
		return nil
	}
	for len(body) > 0 {
		x, n := varint(body)
		if n == 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		body = body[n:]
	}
	return nil
}

// varint decodes one base-128 varint, returning its value and length
// (0 when b ends mid-varint).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
