package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// layers are the modules whose CPU share the traced run reports. Library
// packages (dsp, buffer, math/big, ...) are charged to the layer that
// called them; "bench" is this harness and "runtime" is allocation,
// garbage collection and scheduling.
var layers = []string{
	"sim", "ring", "cfifo", "gateway", "accel", "mpsoc", "pal", "fault",
	"admission", "cluster", "solve", "ilp", "core", "conformance", "bench", "runtime",
}

var isLayer = func() map[string]bool {
	m := map[string]bool{}
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

// layerOf names the layer a profiled function belongs to, or "" for a
// frame to be charged to its caller.
func layerOf(fn string) string {
	const repo = "accelshare/internal/"
	switch {
	case strings.HasPrefix(fn, "main."):
		return "bench"
	case strings.HasPrefix(fn, repo):
		pkg := fn[len(repo):]
		if i := strings.IndexByte(pkg, '.'); i >= 0 {
			pkg = pkg[:i]
		}
		if isLayer[pkg] {
			return pkg
		}
	case strings.HasPrefix(fn, "runtime.mallocgc"), strings.HasPrefix(fn, "runtime.gcAssist"):
		return "runtime"
	}
	return ""
}

// cpuShares decodes a runtime/pprof CPU profile and returns each layer's
// share of sampled CPU time. A sample is charged to the innermost frame
// that belongs to a layer, or to runtime when no frame does.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}

	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs, err = appendVarints(s.locs, v, b)
				case 2:
					var vals []uint64
					vals, err = appendVarints(nil, v, b)
					if len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
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
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
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
		return nil, fmt.Errorf("decoding CPU profile: %w", err)
	}

	name := func(fid uint64) string {
		if i := funcs[fid]; i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		layer := "runtime"
	walk:
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				if got := layerOf(name(fid)); got != "" {
					layer = got
					break walk
				}
			}
		}
		shares[layer] += float64(s.value)
		total += float64(s.value)
	}
	if total > 0 {
		for l := range shares {
			shares[l] /= total
		}
	}
	return shares, nil
}

// fields walks the top-level fields of a protocol-buffer message, passing
// each field's number with its varint value or its bytes.
func fields(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		var (
			v    uint64
			body []byte
		)
		switch key & 7 {
		case 0:
			v, n = varint(b)
			if n == 0 {
				return fmt.Errorf("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unknown wire type %d", key&7)
		}
		if err := f(int(key>>3), v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (b != nil) or not.
func appendVarints(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n == 0 {
			return dst, fmt.Errorf("bad packed varint")
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}

// varint decodes one base-128 varint; n is 0 when b holds none.
func varint(b []byte) (v uint64, n int) {
	for i, c := range b {
		if i == 10 {
			return 0, 0
		}
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
