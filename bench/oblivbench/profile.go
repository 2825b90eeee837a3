package main

// A CPU profile is attributed to layers by decoding the profile.proto
// message runtime/pprof writes (gzip-compressed protobuf) directly: each
// sample goes to the layer of the leaf-most frame, inlined frames included,
// whose function belongs to this repository, or to "runtime" when no frame
// does.  Samples labelled untimed (set-up, checks, calibration) are left out.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// layerOf maps a frame to its layer, or "" for a frame outside the repo.
// The package comes from the function name and the module within hm and
// core from the file name.
func layerOf(fn, file string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "oblivhm/internal/")
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	base := path.Base(file)
	switch pkg {
	case "hm":
		if base == "parsim.go" || base == "fanin.go" {
			return "hm.par"
		}
		return "hm.walk"
	case "core":
		switch base {
		case "ctx.go", "arrays.go", "mem.go":
			return "core.ctx"
		case "parround.go":
			return "core.parround"
		}
		return "core.engine"
	case "harness", "sweep":
		return pkg
	}
	return "algo"
}

// layerTimes returns the CPU nanoseconds of a gzipped CPU profile per layer.
func layerTimes(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("decompress profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("decompress profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("decode profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(prof.strs)) {
			return ""
		}
		return prof.strs[i]
	}
	cpu := -1
	for i, t := range prof.sampleTypes {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("decode profile: no cpu sample type")
	}
	out := map[string]float64{}
samples:
	for _, s := range prof.samples {
		if cpu >= len(s.values) {
			continue
		}
		for j := 0; j+1 < len(s.labels); j += 2 {
			if str(s.labels[j]) == "oblivbench" && str(s.labels[j+1]) == "untimed" {
				continue samples
			}
		}
		layer := "runtime"
	frames:
		for _, id := range s.locs {
			for _, fid := range prof.locs[id] {
				f := prof.funcs[fid]
				if l := layerOf(str(f.name), str(f.file)); l != "" {
					layer = l
					break frames
				}
			}
		}
		out[layer] += float64(s.values[cpu])
	}
	return out, nil
}

// profile holds the parts of profile.proto the attribution reads.
type profile struct {
	sampleTypes []int64 // string index of each value's type
	samples     []profSample
	locs        map[uint64][]uint64 // location id -> function ids, innermost first
	funcs       map[uint64]profFunc
	strs        []string
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
	labels []int64 // string indices of key, value, key, value, ...
}

type profFunc struct{ name, file int64 }

// Field numbers of profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6
)

func decodeProfile(raw []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]profFunc{}}
	err := fields(raw, func(f, wire int, v uint64, data []byte) error {
		switch f {
		case fProfileSampleType:
			var typ int64
			err := fields(data, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					typ = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case fProfileSample:
			var s profSample
			err := fields(data, func(f, wire int, v uint64, data []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = repeated(s.locs, wire, v, data)
				case 2:
					var vs []uint64
					vs, err = repeated(nil, wire, v, data)
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var key, val int64
					err = fields(data, func(f, _ int, v uint64, _ []byte) error {
						switch f {
						case 1:
							key = int64(v)
						case 2:
							val = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, key, val)
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fids []uint64
			err := fields(data, func(f, _ int, v uint64, data []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return fields(data, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fids
			return err
		case fProfileFunction:
			var id uint64
			var fn profFunc
			err := fields(data, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					fn.name = int64(v)
				case 4:
					fn.file = int64(v)
				}
				return nil
			})
			p.funcs[id] = fn
			return err
		case fProfileStrings:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields calls f for every field of the protobuf message msg with the
// field's number, wire type, and its varint value or its bytes.
func fields(msg []byte, f func(field, wire int, v uint64, data []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0: // varint
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1: // fixed64
			if len(msg) < 8 {
				return errTruncated
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			data, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5: // fixed32
			if len(msg) < 4 {
				return errTruncated
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := f(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// repeated appends the values of a repeated integer field, which the
// encoder writes either packed (wire type 2) or one varint at a time.
func repeated(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire != 2 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errTruncated
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}
