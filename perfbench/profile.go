package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profiler records a runtime/pprof CPU profile of the traced run.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

func (p *profiler) stop() []byte {
	pprof.StopCPUProfile()
	return p.buf.Bytes()
}

// shareLayers maps a package path to the per-layer metric that carries
// its CPU share. Packages not listed count only toward the total.
var shareLayers = map[string]string{
	"hopp/internal/workload": "workload",
	"hopp/internal/cachesim": "cachesim",
	"hopp/internal/hpd":      "hpd",
	"hopp/internal/mc":       "mc",
	"hopp/internal/rpt":      "rpt",
	"hopp/internal/core":     "core",
	"hopp/internal/prefetch": "prefetch",
	"hopp/internal/vmm":      "vmm",
	"hopp/internal/sim":      "sim",
	"hopp/internal/service":  "service",
	"hopp/internal/hmtt":     "hmtt",
	"net/http":               "nethttp",
	"encoding/json":          "json",
}

// cpuShares attributes every profile sample to the package of its leaf
// function (the innermost inlined frame) and reports each layer's share
// of all samples.
func cpuShares(profile []byte) (map[string]metric, error) {
	byPkg, total, err := leafSamples(profile)
	if err != nil {
		return nil, err
	}
	out := map[string]metric{}
	for pkg, layer := range shareLayers {
		share := 0.0
		if total > 0 {
			share = float64(byPkg[pkg]) / float64(total)
		}
		out[layer+".cpu_share"] = metric{share, "ratio"}
	}
	return out, nil
}

// funcPackage is the import path of a symbol name such as
// "hopp/internal/cachesim.(*Cache).Access" or "runtime.mallocgc".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// leafSamples decodes a gzipped profile.proto and sums the last sample
// value (CPU nanoseconds for a CPU profile) per leaf package. Only the
// fields it needs are read: Profile.sample (2), .location (4),
// .function (5) and .string_table (6); Sample.location_id (1) and
// .value (2); Location.id (1) and .line (4); Line.function_id (1);
// Function.id (1) and .name (2).
func leafSamples(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var samples []sample
	locFunc := map[uint64]uint64{} // location → innermost function
	funcName := map[uint64]int64{} // function → string index
	var strs []string
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var locs []uint64
			var vals []int64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = pbAppend(locs, v, b)
				case 2:
					for _, x := range pbAppend(nil, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{locs[0], vals[len(vals)-1]})
			}
		case 4:
			var id, fn uint64
			first := true
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					if first {
						first = false
						return pbFields(b, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5:
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	byPkg := map[string]int64{}
	var total int64
	for _, s := range samples {
		total += s.value
		idx := funcName[locFunc[s.leaf]]
		if idx >= 0 && int(idx) < len(strs) {
			byPkg[funcPackage(strs[idx])] += s.value
		}
	}
	return byPkg, total, nil
}

var errProto = errors.New("profile: malformed protobuf")

// pbFields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
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
			if err := fn(field, 0, data); err != nil {
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

// pbAppend appends a repeated varint field's values, packed (data) or
// not (v).
func pbAppend(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
