package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"ibasec"
	"ibasec/internal/fabric"
	"ibasec/internal/icrc"
	"ibasec/internal/keys"
	"ibasec/internal/mac"
	"ibasec/internal/packet"
	"ibasec/internal/policy"
	"ibasec/internal/umac"
)

// Sinks keep the compiler from discarding the timed calls.
var (
	sinkU32   uint32
	sinkU16   uint16
	sinkBool  bool
	sinkBytes []byte
	sinkAny   any
	sinkErr   error
)

// micro is one timed public function of a layer.
type micro struct {
	name string // metric prefix, e.g. "icrc.seal"
	unit string // "ns", "us" or "ms" per call
	op   func()
}

// shapedPacket builds a sealed packet of the workload's shape.
func shapedPacket(s packetShape, rng *rand.Rand) (*packet.Packet, error) {
	p := &packet.Packet{
		LRH:     packet.LRH{SLID: 1, DLID: 2},
		BTH:     packet.BTH{OpCode: packet.UDSendOnly, PKey: 0x8001, DestQP: 2, PSN: 7},
		DETH:    &packet.DETH{QKey: 0x1, SrcQP: 2},
		Payload: make([]byte, s.payload),
	}
	rng.Read(p.Payload)
	if s.mad {
		p.LRH = packet.LRH{SLID: 1, DLID: packet.LIDPermissive, VL: fabric.VLManagement}
		p.BTH = packet.BTH{OpCode: packet.UDSendOnly, PKey: 0xFFFF, DestQP: 0}
		p.DETH = &packet.DETH{QKey: 0, SrcQP: 0}
	}
	if s.auth {
		// The ICRC field carries a UMAC-32 tag; sealing recomputes only
		// the VCRC, as on the authenticated send path.
		p.BTH.AuthID = mac.IDUMAC32
		p.ICRC = rng.Uint32()
	}
	var v icrc.Verifier
	return p, v.Seal(p)
}

// policyDoc is a document like the one the policy plane compiles for
// cfg: NumPartitions rules over the mesh's nodes, every member full.
func policyDoc(cfg ibasec.Config) *policy.Document {
	doc := &policy.Document{Version: policy.CurrentVersion, Mode: cfg.Enforcement}
	n := cfg.MeshW * cfg.MeshH
	for g := 0; g < cfg.NumPartitions; g++ {
		r := policy.Rule{Name: fmt.Sprintf("part-%d", g+1), Base: uint16(g + 1)}
		for node := g; node < n; node += cfg.NumPartitions {
			r.Full = append(r.Full, policy.PortRange{First: node, Last: node})
		}
		doc.Rules = append(doc.Rules, r)
	}
	return doc
}

// micros returns the timed functions for one workload, on inputs shaped
// like its traffic and configuration.
func micros(w workload, seed int64) ([]micro, error) {
	rng := rand.New(rand.NewSource(seed))
	cfg := w.config(seed * 100)
	p, err := shapedPacket(w.shape, rng)
	if err != nil {
		return nil, fmt.Errorf("sealing shaped packet: %w", err)
	}
	wire := append([]byte(nil), p.Wire()...)
	region, err := icrc.InvariantRegion(wire)
	if err != nil {
		return nil, err
	}
	key := make([]byte, umac.KeySize)
	rng.Read(key)
	u, err := umac.New(key)
	if err != nil {
		return nil, err
	}
	doc := policyDoc(cfg)
	n := cfg.MeshW * cfg.MeshH
	if _, err := policy.Compile(doc, n); err != nil {
		return nil, fmt.Errorf("compiling policy: %w", err)
	}
	var v icrc.Verifier
	var parsed packet.Packet
	nonce := uint64(0)
	return []micro{
		{"icrc.seal", "ns", func() { sinkErr = v.Seal(p) }},
		{"icrc.verify", "ns", func() { sinkBool, sinkErr = v.VerifyICRC(wire) }},
		{"icrc.vcrc", "ns", func() { sinkU16, sinkErr = icrc.VCRC(wire) }},
		{"packet.marshal", "ns", func() { sinkBytes = p.Marshal() }},
		{"packet.unmarshal", "ns", func() { sinkErr = parsed.Unmarshal(wire) }},
		{"umac.tag32", "ns", func() {
			nonce++
			sinkU32, sinkErr = u.Tag32Uint(region, nonce)
		}},
		{"keys.keypair", "ms", func() { sinkAny, sinkErr = keys.GenerateNodeKeyPair(rng) }},
		{"policy.compile", "us", func() { sinkAny, sinkErr = policy.Compile(doc, n) }},
	}, nil
}

// timeOp times op in five batches sized to fill budget together and
// returns the median CPU nanoseconds per call and the heap allocations
// per call.
func timeOp(op func(), budget time.Duration) (nsPerOp, allocs float64) {
	op() // warm caches and lazy state
	batch := 1
	for {
		c0 := cpuTime()
		for i := 0; i < batch; i++ {
			op()
		}
		if d := cpuTime() - c0; d >= budget/50 || batch >= 1<<24 {
			if d > 0 {
				batch = int(float64(batch) * float64(budget/5) / float64(d))
			}
			break
		}
		batch *= 4
	}
	if batch < 1 {
		batch = 1
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	times := make([]float64, 5)
	for r := range times {
		c0 := cpuTime()
		for i := 0; i < batch; i++ {
			op()
		}
		times[r] = float64(cpuTime()-c0) / float64(batch)
	}
	runtime.ReadMemStats(&ms1)
	sort.Float64s(times)
	return times[2], float64(ms1.Mallocs-ms0.Mallocs) / float64(5*batch)
}
