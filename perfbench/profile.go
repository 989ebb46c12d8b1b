package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// profiledPackages are the packages whose CPU self-time share the traced
// run reports: every model layer of internal/, plus the Go runtime
// (allocation and garbage collection).
var profiledPackages = []string{
	"sim", "cpu", "cachesim", "core", "writelog", "ftl", "flash", "cxl", "dram",
	"osched", "migrate", "fleet", "system", "trace", "workloads", "runtime",
}

// packageOf maps a profiled function name to its package label:
// "skybyte/internal/core.(*Controller).MemRd" is "core", and every
// runtime function, including internal/runtime/..., is "runtime".
func packageOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "skybyte/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// cpuShares decodes a gzipped pprof CPU profile and returns each
// package's share of self time: the samples whose innermost frame lies
// in that package, over all samples.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		total += s.values[0]
		fn := p.funcName[p.leafFunc[s.locs[0]]]
		shares[packageOf(fn)] += float64(s.values[0])
	}
	if total == 0 {
		return nil, errors.New("profile holds no samples")
	}
	for k := range shares {
		shares[k] /= float64(total)
	}
	return shares, nil
}

// profile is the subset of the pprof message the share computation
// needs (github.com/google/pprof/proto/profile.proto).
type profile struct {
	samples  []sample
	leafFunc map[uint64]uint64 // location id -> innermost function id
	funcName map[uint64]string // function id -> name
}

type sample struct {
	locs   []uint64
	values []int64
}

// Field numbers of profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{leafFunc: map[uint64]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	nameIdx := map[uint64]uint64{}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case fProfileSample:
			var s sample
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case fSampleLocation:
					s.locs = appendVarints(s.locs, v, data)
				case fSampleValue:
					for _, x := range appendVarints(nil, v, data) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id, fn uint64
			first := true
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					// The first line is the innermost inlined frame.
					if first {
						first = false
						return eachField(data, func(num int, v uint64, _ []byte) error {
							if num == fLineFunction {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			p.leafFunc[id] = fn
			return err
		case fProfileFunction:
			var id, name uint64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = v
				}
				return nil
			})
			nameIdx[id] = name
			return err
		case fProfileStrings:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range nameIdx {
		if idx < uint64(len(strs)) {
			p.funcName[id] = strs[idx]
		}
	}
	return p, nil
}

// appendVarints appends one repeated integer field occurrence: a single
// varint (v, data nil) or a packed run of varints (data).
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

var errProto = errors.New("malformed profile")

// eachField walks a protobuf message, calling f with each field's
// number and either its varint value or its length-delimited payload.
// Fixed-width fields are skipped.
func eachField(b []byte, f func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := f(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}
