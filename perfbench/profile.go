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

// profile is the part of a pprof profile.proto the layer split needs:
// the sample value names and, per sample, its values and its stack as
// function names, innermost frame first.
type profile struct {
	types   []string
	samples []profSample
}

type profSample struct {
	values []int64
	frames []string
}

// valueIndex returns the position of the named sample value ("cpu",
// "alloc_objects", ...), or -1.
func (p *profile) valueIndex(name string) int {
	for i, t := range p.types {
		if t == name {
			return i
		}
	}
	return -1
}

// pkgLayers are the program's layers, named after its internal
// packages; profLayers adds the buckets for every other stack.
var (
	pkgLayers = []string{
		"wire", "transport", "pastry", "past", "cachengine", "cache",
		"logstore", "store", "obs", "daemon", "netsim", "id",
	}
	profLayers = append(append([]string(nil), pkgLayers...), "runtime", "other", "client")
)

const repoPrefix = "past/internal/"

// layerOf charges a stack (innermost frame first) to a layer: the
// package of its innermost past/internal frame, so gob work called from
// wire.Codec counts as wire and socket syscalls made by the transport
// count as transport. Repo packages outside the named layers count as
// "other"; a stack with no repo frame counts as "client" when it runs
// the benchmark's own code (package main) and as "runtime" otherwise.
func layerOf(frames []string) string {
	for _, fn := range frames {
		rest, ok := strings.CutPrefix(fn, repoPrefix)
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range pkgLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	for _, fn := range frames {
		if strings.HasPrefix(fn, "main.") {
			return "client"
		}
	}
	return "runtime"
}

// byLayer sums value idx over the samples, per layer.
func (p *profile) byLayer(idx int) map[string]int64 {
	out := make(map[string]int64)
	if idx < 0 {
		return out
	}
	for _, s := range p.samples {
		if idx < len(s.values) {
			out[layerOf(s.frames)] += s.values[idx]
		}
	}
	return out
}

// parseProfile decodes a (possibly gzipped) profile.proto.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: gunzip: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs     []string
		typeStrs []int64 // string index of each sample type's name
		raws     []rawSample
		locLines = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]int64{}    // function id -> string index
	)
	err := eachField(data, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typeStrs = append(typeStrs, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, wt int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, wt, v, b)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, wt, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var lid uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					lid = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[lid] = fns
			return err
		case 5: // function
			var fid uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					fid = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[fid] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, t := range typeStrs {
		p.types = append(p.types, str(t))
	}
	for _, r := range raws {
		s := profSample{values: r.values}
		for _, l := range r.locs {
			for _, f := range locLines[l] {
				s.frames = append(s.frames, str(funcName[f]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message. For varint
// fields v holds the value; for length-delimited fields b holds the
// bytes. Fixed-width fields are skipped.
func eachField(msg []byte, fn func(num, wireType int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's value(s): one value
// when unpacked (wire type 0), a run of them when packed (wire type 2).
func appendVarints(dst *[]uint64, wt int, v uint64, b []byte) error {
	if wt == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
