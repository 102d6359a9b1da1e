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

// layerPrefixes maps the innermost psa/internal frame of a CPU sample to
// a named layer: the first entry whose prefix the function name (without
// "psa/internal/") starts with wins. A psa frame no entry matches is
// charged to its package name; a sample with no psa frame to "runtime".
var layerPrefixes = []struct{ prefix, layer string }{
	{"sem.(*Config).cloneProc", "sem.clone"},
	{"sem.(*Config).clone", "sem.clone"},
	{"sem.(*Config).mutGlobals", "sem.clone"},
	{"sem.(*Config).mutHeapObj", "sem.clone"},
	{"sem.(*encoder)", "sem.encode"},
	{"sem.(*Config).encode", "sem.encode"},
	{"sem.(*Config).fingerprint", "sem.encode"},
	{"sem.(*Config).Encode", "sem.encode"},
	{"sem.(*Config).Fingerprint", "sem.encode"},
	{"sem.Key.", "sem.encode"},
	{"sem.getEncoder", "sem.encode"},
	{"sem.putEncoder", "sem.encode"},
	{"sem.(*Summaries)", "explore.stubborn"},
	{"sem.(*Summary)", "explore.stubborn"},
	{"sem.(*Config).NextAccess", "explore.stubborn"},
	{"sem.(*dryRun)", "explore.stubborn"},
	{"sem.", "sem.step"},
	{"explore.(*fpSet)", "explore.visited"},
	{"explore.stubbornSet", "explore.stubborn"},
	{"explore.(*stubbornScratch)", "explore.stubborn"},
	{"explore.", "explore.other"},
	{"abssem.(*AConfig).joinInto", "abssem.join"},
	{"abssem.(*AConfig).joinCopy", "abssem.join"},
	{"abssem.mergeDest", "abssem.join"},
	{"absdom.(*Store).Join", "abssem.join"},
	{"absdom.(*Store).Widen", "abssem.join"},
	{"absdom.(*Store).Leq", "abssem.join"},
	{"abssem.(*AConfig).signature", "abssem.signature"},
	{"abssem.(*Result).collect", "abssem.collect"},
	{"abssem.(*SummaryStore)", "abssem.summary"},
	{"abssem.(*runSummaries)", "abssem.summary"},
	{"abssem.(*encoder)", "abssem.summary"},
	{"abssem.(*remapper)", "abssem.summary"},
	{"abssem.rebase", "abssem.summary"},
	{"abssem.evict", "abssem.summary"},
	{"abssem.detachExpansion", "abssem.summary"},
	{"abssem.", "abssem.transfer"},
	{"absdom.", "abssem.transfer"},
	{"lattice.", "abssem.transfer"},
}

const psaPrefix = "psa/internal/"

// layerOf names the layer a function belongs to, or "" for a function
// outside psa/internal.
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, psaPrefix) {
		return ""
	}
	name := fn[len(psaPrefix):]
	// absdom's per-domain lattice operations are the join/widen of the
	// abstract engine wherever they are called from.
	if strings.HasPrefix(name, "absdom.") && (strings.Contains(name, ".Join") || strings.Contains(name, ".Widen")) {
		return "abssem.join"
	}
	for _, p := range layerPrefixes {
		if strings.HasPrefix(name, p.prefix) {
			return p.layer
		}
	}
	pkg, _, _ := strings.Cut(name, ".")
	return pkg
}

// Attribute charges every sample of a gzipped pprof CPU profile to the
// layer of its innermost psa/internal frame and returns the sample
// counts per layer.
func Attribute(profile []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		layer := "runtime"
	frames:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if l := layerOf(p.strings[p.funcNames[fn]]); l != "" {
					layer = l
					break frames
				}
			}
		}
		out[layer] += s.count
	}
	return out, nil
}

// The subset of the pprof protobuf (profile.proto) Attribute reads.
type sample struct {
	locs  []uint64 // leaf first
	count int64
}

type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location → function ids, innermost inlined frame first
	funcNames map[uint64]int64    // function → string table index
	strings   []string
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := fields(b, func(num int, wire int, v uint64, msg []byte) error {
		switch num {
		case 2: // sample
			var s sample
			values := 0
			err := fields(msg, func(num int, wire int, v uint64, sub []byte) error {
				switch num {
				case 1:
					return varints(wire, v, sub, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(wire, v, sub, func(x uint64) {
						if values == 0 { // sample count; the second value is CPU time
							s.count = int64(x)
						}
						values++
					})
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := fields(msg, func(num int, wire int, v uint64, sub []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(sub, func(num int, wire int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(msg, func(num int, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6: // string table
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, n := range p.funcNames {
		if n < 0 || n >= int64(len(p.strings)) {
			return nil, errors.New("function name out of the string table")
		}
	}
	return p, nil
}

// fields walks the top-level fields of a protobuf message: varint fields
// arrive as v, length-delimited ones as msg.
func fields(b []byte, f func(num, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// varints yields a repeated varint field, packed or not.
func varints(wire int, v uint64, packed []byte, f func(uint64)) error {
	if wire == 0 {
		f(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		f(x)
		packed = packed[n:]
	}
	return nil
}
