package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// span is one timed interval of the traced run. Spans of one run (one
// sub-seed's Build+Simulate, or the micro-timing block) share Run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the set began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the set ends.
type tracer struct {
	origin time.Time
	spans  []span
}

// do records fn as a span under parent; fn receives the span's id so it
// can open children.
func (t *tracer) do(parent int, run, name string, fn func(id int)) {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: run, Name: name, Start: time.Since(t.origin).Nanoseconds()})
	fn(id)
	t.spans[id-1].End = time.Since(t.origin).Nanoseconds()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// labelled runs fn with the pprof label phase=<phase>, so the profile can
// tell set-up samples from simulation samples.
func labelled(phase string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels("phase", phase), func(context.Context) { fn() })
}

// layers are the internal packages CPU time is attributed to.
var layers = []string{
	"icrc", "sim", "packet", "umac", "mac", "transport", "keys", "enforce",
	"fabric", "sm", "policy", "faults", "metrics", "topology", "workload", "core",
}

// noLayer is the bucket for samples with no ibasec/internal frame: the
// garbage collector's background workers and the scheduler.
const noLayer = "runtime"

// layerShares decodes a gzipped pprof CPU profile and charges each
// sample's CPU time to the innermost ibasec/internal/<pkg> frame on its
// stack, so malloc, GC assist and crypto count against the layer that
// called them. It returns each layer's share of the samples labelled
// phase=build and of all other samples, which are Simulate and the
// unlabelled background work (the collector's workers) beside it.
func layerShares(gz []byte) (build, run map[string]float64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, err
	}
	prof, err := parseProfile(raw)
	if err != nil {
		return nil, nil, err
	}
	build, run = map[string]float64{}, map[string]float64{}
	var buildTotal, runTotal float64
	for _, s := range prof.samples {
		layer := prof.innermostLayer(s.locs)
		v := float64(s.value)
		if s.build {
			build[layer] += v
			buildTotal += v
		} else {
			run[layer] += v
			runTotal += v
		}
	}
	for k := range build {
		build[k] = ratio(build[k], buildTotal)
	}
	for k := range run {
		run[k] = ratio(run[k], runTotal)
	}
	return build, run, nil
}

// profile is the part of a pprof profile.proto the attribution reads.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]uint64   // function id -> string-table index
	strs     []string
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample type: CPU nanoseconds
	build bool     // labelled phase=build
}

func (p *profile) innermostLayer(locs []uint64) string {
	for _, l := range locs {
		for _, f := range p.locFuncs[l] {
			idx := p.funcName[f]
			if idx >= uint64(len(p.strs)) {
				continue
			}
			rest, ok := strings.CutPrefix(p.strs[idx], "ibasec/internal/")
			if !ok {
				continue
			}
			if dot := strings.IndexByte(rest, '.'); dot > 0 {
				return rest[:dot]
			}
		}
	}
	return noLayer
}

// parseProfile decodes profile.proto fields sample (2), location (4),
// function (5) and string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]uint64{}}
	type label struct{ key, str uint64 }
	var labels [][]label
	err := protoFields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s profSample
			var vals []uint64
			var ls []label
			err := protoFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = varints(s.locs, v, data)
				case 2:
					vals = varints(vals, v, data)
				case 3:
					ls = append(ls, label{})
					return protoFields(data, func(num int, v uint64, _ []byte) error {
						switch num {
						case 1:
							ls[len(ls)-1].key = v
						case 2:
							ls[len(ls)-1].str = v
						}
						return nil
					})
				}
				return nil
			})
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
			labels = append(labels, ls)
			return err
		case 4:
			var id uint64
			var funcs []uint64
			err := protoFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return protoFields(data, func(num int, v uint64, _ []byte) error {
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
		case 5:
			var id, name uint64
			err := protoFields(data, func(num int, v uint64, _ []byte) error {
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
	str := func(i uint64) string {
		if i < uint64(len(p.strs)) {
			return p.strs[i]
		}
		return ""
	}
	for i, ls := range labels {
		for _, l := range ls {
			if str(l.key) == "phase" && str(l.str) == "build" {
				p.samples[i].build = true
			}
		}
	}
	return p, nil
}

var errProto = errors.New("perfbench: malformed profile")

// protoFields calls fn for each field of one protobuf message: varint and
// fixed-width values in v, length-delimited payloads in data (nil for
// the other wire types).
func protoFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num := int(key >> 3)
		var err error
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			err = fn(num, v, nil)
		case 1:
			if len(b) < 8 {
				return errProto
			}
			err = fn(num, binary.LittleEndian.Uint64(b), nil)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			err = fn(num, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			err = fn(num, uint64(binary.LittleEndian.Uint32(b)), nil)
			b = b[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errProto, key&7)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated integer field's values, packed (data
// non-nil) or not.
func varints(dst []uint64, v uint64, data []byte) []uint64 {
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

// outPath names a traced run's output file.
func outPath(dir, workload string, seed int64, ext string) string {
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.%s", workload, seed, ext))
}
