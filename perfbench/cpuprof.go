package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// The traced run's host CPU profile, bucketed by the package that spent
// it. runtime/pprof writes a gzipped profile.proto; the few messages read
// here (sample, location, function, string table) are decoded by hand so
// the benchmark needs nothing outside the standard library.

// cpuBuckets maps package paths to the cpu.<bucket>_share metrics.
var cpuBuckets = map[string]string{
	"hemlock/internal/vm":        "vm",
	"hemlock/internal/mem":       "mem",
	"hemlock/internal/addrspace": "addrspace",
	"hemlock/internal/kern":      "kern",
	"hemlock/internal/ldl":       "ldl",
	"hemlock/internal/lds":       "lds",
	"hemlock/internal/isa":       "isa",
	"hemlock/internal/shmfs":     "shmfs",
	"hemlock/internal/server":    "server",
	"net/http":                   "http_json",
	"net":                        "http_json",
	"net/textproto":              "http_json",
	"encoding/json":              "http_json",
	"internal/poll":              "http_json",
	"bufio":                      "http_json",
	"syscall":                    "http_json",
}

// cpuBucketNames lists every bucket, gc included, in report order.
var cpuBucketNames = []string{"vm", "mem", "addrspace", "kern", "ldl", "lds", "isa",
	"shmfs", "server", "http_json", "gc"}

// gcRoots are runtime functions whose presence anywhere in a stack marks
// the sample as garbage-collector work.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.markroot"}

// funcPackage returns the import path of a symbolized Go function name,
// e.g. "hemlock/internal/vm" for "hemlock/internal/vm.(*CPU).RunBatch".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// bucketOf attributes one stack (leaf first) to a bucket: gc if any frame
// is collector work, else the innermost frame in a bucketed package, else
// "" (unattributed).
func bucketOf(stack []string) string {
	for _, f := range stack {
		for _, g := range gcRoots {
			if strings.HasPrefix(f, g) {
				return "gc"
			}
		}
	}
	for _, f := range stack {
		if b, ok := cpuBuckets[funcPackage(f)]; ok {
			return b
		}
	}
	return ""
}

// cpuShares decodes a gzipped CPU profile and returns each bucket's share
// of all samples.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
	)
	err = fields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // Sample
			var s sample
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendUints(s.locs, v, b)
				case 2:
					if vals := appendUints(nil, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := fields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		var stack []string
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				if i := funcs[fn]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		total += float64(s.count)
		if b := bucketOf(stack); b != "" {
			shares[b] += float64(s.count)
		}
	}
	if total > 0 {
		for b := range shares {
			shares[b] /= total
		}
	}
	return shares, nil
}

var errProto = errors.New("perfbench: malformed profile")

// fields walks one protobuf message, calling fn with each field number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n == 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
			continue
		default:
			return errProto
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field given either unpacked (v)
// or packed (data).
func appendUints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
