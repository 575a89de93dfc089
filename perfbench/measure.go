package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"ibasec"
)

// bench runs one workload's set: its sub-seed configurations, simulated
// in passes. Every run is checked; the set fails if any run does.
type bench struct {
	w      workload
	seed   int64
	budget time.Duration
	start  time.Time

	// digests holds each sub-seed's first simulated-statistics digest;
	// every later run of the sub-seed must reproduce it.
	digests   map[int64]string
	attempted int
	failed    int
}

func newBench(w workload, seed int64, budget time.Duration) *bench {
	return &bench{w: w, seed: seed, budget: budget, start: time.Now(), digests: make(map[int64]string)}
}

// subSeeds derives the set's simulation seeds from the input seed. The
// mapping does not depend on the sub-seed count, so adding sub-seeds
// keeps the existing inputs.
func (b *bench) subSeeds() []int64 {
	s := make([]int64, b.w.subSeeds)
	for i := range s {
		s[i] = b.seed*100 + int64(i)
	}
	return s
}

// run is one checked Build+Simulate of one sub-seed.
type run struct {
	setup, simulate time.Duration // process CPU time
	allocs, bytes   uint64        // heap allocations over Build+Simulate
	peakRSSMB       float64       // resident-set high-water mark over the run
	stats           []float64     // one value per entry of simStats
}

// simStats are the simulated statistics read after every run, only from
// the stable surface: ibasec.Results, the engine's event count, exported
// device accessors and the HA coordinator's takeover log. They are
// deterministic per seed; their concatenation is the run's digest.
var simStats = []struct {
	name, unit string
	read       func(cl *ibasec.Cluster, res *ibasec.Results) float64
}{
	{"sim_queuing_us", "us", func(_ *ibasec.Cluster, res *ibasec.Results) float64 { q, _ := res.Combined(); return q }},
	{"sim_be_p99_us", "us", func(_ *ibasec.Cluster, res *ibasec.Results) float64 { return res.BETail.P99() }},
	{"sim.events", "count", func(cl *ibasec.Cluster, _ *ibasec.Results) float64 { return float64(cl.Sim.Fired()) }},
	{"workload.sent", "count", func(_ *ibasec.Cluster, res *ibasec.Results) float64 { return float64(res.SentLegit) }},
	{"workload.withheld_rt", "count", func(_ *ibasec.Cluster, res *ibasec.Results) float64 { return float64(res.WithheldRT) }},
	{"workload.delivered", "count", func(_ *ibasec.Cluster, res *ibasec.Results) float64 { return float64(res.DeliveredUD) }},
	{"transport.signed", "count", func(_ *ibasec.Cluster, res *ibasec.Results) float64 { return float64(res.PacketsSigned) }},
	{"transport.auth_ok", "count", func(_ *ibasec.Cluster, res *ibasec.Results) float64 { return float64(res.AuthOK) }},
	{"transport.auth_fail", "count", func(_ *ibasec.Cluster, res *ibasec.Results) float64 { return float64(res.AuthFail) }},
	{"keys.exchanges", "count", func(_ *ibasec.Cluster, res *ibasec.Results) float64 { return float64(res.KeyExchanges) }},
	{"enforce.lookups", "count", func(_ *ibasec.Cluster, res *ibasec.Results) float64 { return float64(res.FilterLookups) }},
	{"enforce.dropped", "count", func(_ *ibasec.Cluster, res *ibasec.Results) float64 { return float64(res.FilterDropped) }},
	{"fabric.bytes_forwarded", "B", func(cl *ibasec.Cluster, _ *ibasec.Results) float64 {
		var n uint64
		for _, sw := range cl.Mesh.Switches {
			for p := 0; p < sw.NumPorts(); p++ {
				if sw.PortConnected(p) {
					bytes, _ := sw.PortStats(p)
					n += bytes
				}
			}
		}
		return float64(n)
	}},
	{"fabric.mean_link_util", "ratio", func(_ *ibasec.Cluster, res *ibasec.Results) float64 { return res.MeanLinkUtil }},
	{"fabric.credit_stall_ns", "ns", func(_ *ibasec.Cluster, res *ibasec.Results) float64 { return float64(res.CreditStallNs) }},
	{"sm.traps", "count", func(_ *ibasec.Cluster, res *ibasec.Results) float64 { return float64(res.TrapsSent) }},
	{"sm.sif_registrations", "count", func(_ *ibasec.Cluster, res *ibasec.Results) float64 { return float64(res.SIFRegistrations) }},
	{"sm.health_mads", "count", func(_ *ibasec.Cluster, res *ibasec.Results) float64 {
		return float64(res.HealthSweepMADs + res.HealthTrapMADs + res.HealthRerouteMADs)
	}},
	{"sm.takeovers", "count", func(cl *ibasec.Cluster, _ *ibasec.Results) float64 {
		if cl.HA == nil {
			return 0
		}
		return float64(len(cl.HA.Events))
	}},
	{"policy.audit_mads", "count", func(_ *ibasec.Cluster, res *ibasec.Results) float64 { return float64(res.AuditMADs) }},
	{"policy.repair_mads", "count", func(_ *ibasec.Cluster, res *ibasec.Results) float64 { return float64(res.RepairMADs) }},
}

// meanStats averages the runs' simulated statistics by name.
func meanStats(runs []run) map[string]float64 {
	m := make(map[string]float64, len(simStats))
	for i, s := range simStats {
		for _, r := range runs {
			m[s.name] += r.stats[i] / float64(len(runs))
		}
	}
	return m
}

// check applies the output checks every run must pass.
func (b *bench) check(cl *ibasec.Cluster, res *ibasec.Results, stats []float64) error {
	if res.DeliveredLegit == 0 {
		return fmt.Errorf("no legitimate packet delivered")
	}
	// QP-level key management exchanges a request and a reply datagram
	// per key; DeliveredUD counts them and SentLegit does not.
	if sent := res.SentLegit + 2*res.KeyExchanges; res.DeliveredUD > sent {
		return fmt.Errorf("delivered %d datagrams but sent %d", res.DeliveredUD, sent)
	}
	if err := b.w.engaged(cl, res); err != nil {
		return err
	}
	d := fmt.Sprint(stats)
	if ref, ok := b.digests[cl.Cfg.Seed]; ok && ref != d {
		return fmt.Errorf("seed %d not deterministic:\n  %s\n  %s", cl.Cfg.Seed, ref, d)
	} else if !ok {
		b.digests[cl.Cfg.Seed] = d
	}
	return nil
}

// build times one Build of seed's configuration. Every Build starts from
// a collected heap, so earlier garbage neither paces this run's
// collections nor lifts its memory peak, and with the resident-set
// high-water mark reset, so the mark read after the run is this run's.
func (b *bench) build(seed int64) (*ibasec.Cluster, time.Duration, error) {
	cfg := b.w.config(seed)
	runtime.GC()
	// Without the reset (a kernel before 4.0) the mark covers every run
	// so far, which only overstates the peak.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	c0 := cpuTime()
	cl, err := ibasec.Build(cfg)
	return cl, cpuTime() - c0, err
}

// cpuTime is the CPU time the process has used: every thread, the
// collector's included. The kernel leaves out time the hypervisor stole
// from the virtual CPU, which on a shared host slows wall-clock time by
// up to 75 % for a minute at a time.
func cpuTime() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", errno)) // the clock exists on every Linux since 2.6.12
	}
	return time.Duration(ts.Nano())
}

// runOne builds and simulates one sub-seed, recording the run's set-up
// and simulate times and, when memstats is set, its heap allocations.
// Wrapping hooks the two timed calls (the traced run labels and spans
// them). A panic, an error or a failed check counts the run as failed.
func (b *bench) runOne(seed int64, memstats bool, wrap func(phase string, fn func())) (r run, ok bool) {
	b.attempted++
	defer func() {
		if p := recover(); p != nil {
			fmt.Printf("# FAIL %s seed %d: panic: %v\n", b.w.name, seed, p)
			b.failed++
			ok = false
		}
	}()
	if wrap == nil {
		wrap = func(_ string, fn func()) { fn() }
	}
	var ms0, ms1 runtime.MemStats
	if memstats {
		runtime.ReadMemStats(&ms0)
	}
	var cl *ibasec.Cluster
	var err error
	wrap("build", func() { cl, r.setup, err = b.build(seed) })
	if err != nil {
		fmt.Printf("# FAIL %s seed %d: build: %v\n", b.w.name, seed, err)
		b.failed++
		return r, false
	}
	var res *ibasec.Results
	wrap("simulate", func() {
		c0 := cpuTime()
		res = cl.Simulate()
		r.simulate = cpuTime() - c0
	})
	if memstats {
		r.peakRSSMB = peakRSSMB()
		runtime.ReadMemStats(&ms1)
		r.allocs = ms1.Mallocs - ms0.Mallocs
		r.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	}
	for _, s := range simStats {
		r.stats = append(r.stats, s.read(cl, res))
	}
	if err := b.check(cl, res, r.stats); err != nil {
		fmt.Printf("# FAIL %s seed %d: %v\n", b.w.name, seed, err)
		b.failed++
		return r, false
	}
	return r, true
}

// pass runs every sub-seed once, in order, and returns the runs that
// passed their checks.
func (b *bench) pass(memstats bool, wrap func(string, func())) []run {
	var runs []run
	for _, s := range b.subSeeds() {
		if r, ok := b.runOne(s, memstats, wrap); ok {
			runs = append(runs, r)
		}
	}
	return runs
}

// setupSamples times extra Builds, round-robin over the sub-seeds, for a
// tenth of the budget: set-up is cheap on most workloads, and its median
// needs many samples to be steady.
func (b *bench) setupSamples() []float64 {
	var out []float64
	seeds := b.subSeeds()
	deadline := time.Now().Add(b.budget / 10)
	for i := 0; len(out) == 0 || time.Now().Before(deadline); i++ {
		_, d, err := b.build(seeds[i%len(seeds)])
		if err != nil {
			// The pass that follows reports the failure.
			break
		}
		out = append(out, d.Seconds())
	}
	return out
}

// timedPasses runs one untimed warm-up run, then timed passes for as
// long as one more pass, as long as the last, fits in the budget; it
// makes at least minTimed. Passes in which every run failed are dropped.
func (b *bench) timedPasses(minTimed int) [][]run {
	b.runOne(b.subSeeds()[0], false, nil)
	var passes [][]run
	var last time.Duration
	for n := 0; n < minTimed || time.Since(b.start)+last <= b.budget; n++ {
		t0 := time.Now()
		if runs := b.pass(true, nil); len(runs) > 0 {
			passes = append(passes, runs)
		}
		last = time.Since(t0)
	}
	return passes
}

// untraced measures the end-to-end metrics. Per-run figures are means
// over one pass's sub-seeds; each metric is the median over passes.
func (b *bench) untraced() report {
	setup := b.setupSamples()
	passes := b.timedPasses(2)

	var runS, pktsPerS, allocs, allocMB, rss []float64
	sim := map[string]float64{}
	for _, p := range passes {
		var simulate time.Duration
		var n, bytes uint64
		for _, r := range p {
			simulate += r.simulate
			n += r.allocs
			bytes += r.bytes
			setup = append(setup, r.setup.Seconds())
			rss = append(rss, r.peakRSSMB)
		}
		k := float64(len(p))
		sim = meanStats(p)
		runS = append(runS, simulate.Seconds()/k)
		pktsPerS = append(pktsPerS, sim["workload.sent"]*k/simulate.Seconds())
		allocs = append(allocs, float64(n)/k)
		allocMB = append(allocMB, float64(bytes)/k/1e6)
	}

	return report{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics: map[string]metric{
			"setup_s":          {median(setup), "s"},
			"run_s":            {median(runS), "s"},
			"pkts_per_s":       {median(pktsPerS), "1/s"},
			"allocs_per_run":   {median(allocs), "count"},
			"alloc_mb_per_run": {median(allocMB), "MB"},
			"peak_rss_mb":      {median(rss), "MB"},
			"sim_queuing_us":   {sim["sim_queuing_us"], "us"},
			"sim_be_p99_us":    {sim["sim_be_p99_us"], "us"},
		},
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in
// MB, or returns 0 if /proc is unreadable.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// median returns the median of xs, or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traced measures the per-layer metrics: a warm-up run, an untraced
// pass as the baseline, a pass under the CPU profiler with spans around
// every Build and Simulate, then the micro-timings. Spans and the
// profile are written to outDir.
func (b *bench) traced(outDir string) (report, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return report{}, err
	}
	t := &tracer{origin: b.start}
	b.runOne(b.subSeeds()[0], false, nil)
	base := b.pass(false, nil)

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return report{}, err
	}
	var traced []run
	t.do(0, "pass", "traced_pass", func(passID int) {
		for _, s := range b.subSeeds() {
			t.do(passID, fmt.Sprint(s), "run", func(runID int) {
				r, ok := b.runOne(s, false, func(phase string, fn func()) {
					t.do(runID, fmt.Sprint(s), phase, func(int) { labelled(phase, fn) })
				})
				if ok {
					traced = append(traced, r)
				}
			})
		}
	})
	pprof.StopCPUProfile()

	ms, err := micros(b.w, b.seed)
	if err != nil {
		return report{}, err
	}
	out := map[string]metric{}
	t.do(0, "micro", "micro", func(id int) {
		for _, m := range ms {
			t.do(id, "micro", m.name, func(int) {
				ns, allocs := timeOp(m.op, b.budget/100)
				out[m.name+"_"+m.unit] = metric{ns / unitNs[m.unit], m.unit}
				out[m.name+"_allocs"] = metric{allocs, "count"}
			})
		}
	})

	if err := t.write(outPath(outDir, b.w.name, b.seed, "spans.jsonl")); err != nil {
		return report{}, err
	}
	if err := os.WriteFile(outPath(outDir, b.w.name, b.seed, "pprof"), prof.Bytes(), 0o644); err != nil {
		return report{}, err
	}
	build, run, err := layerShares(prof.Bytes())
	if err != nil {
		return report{}, err
	}
	for _, l := range layers {
		out[l+".cpu_share"] = metric{run[l], "ratio"}
	}
	out["runtime.gc_share"] = metric{run[noLayer], "ratio"}
	out["keys.setup_share"] = metric{build["keys"], "ratio"}

	stats := meanStats(base)
	for _, s := range simStats {
		if !strings.HasPrefix(s.name, "sim_") { // sim_* are end-to-end metrics
			out[s.name] = metric{stats[s.name], s.unit}
		}
	}
	baseSim, tracedSim := meanSimulate(base), meanSimulate(traced)
	simMS := float64(b.w.config(b.seed).Duration) / float64(ibasec.Millisecond)
	out["sim.events_per_sim_ms"] = metric{stats["sim.events"] / simMS, "1/ms"}
	out["sim.host_ns_per_event"] = metric{ratio(baseSim*1e9, stats["sim.events"]), "ns"}
	out["transport.auth_ok_ratio"] = metric{ratio(stats["transport.auth_ok"], stats["transport.auth_ok"]+stats["transport.auth_fail"]), "ratio"}
	out["enforce.drop_ratio"] = metric{ratio(stats["enforce.dropped"], stats["enforce.lookups"]), "ratio"}
	out["workload.legit_loss"] = metric{1 - ratio(stats["workload.delivered"], stats["workload.sent"]), "ratio"}
	out["trace.overhead"] = metric{ratio(tracedSim, baseSim) - 1, "ratio"}

	return report{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: out}, nil
}

// unitNs converts a micro-timing unit to nanoseconds.
var unitNs = map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}

// meanSimulate is the runs' mean Simulate time in seconds, or 0 for none.
func meanSimulate(runs []run) float64 {
	var d time.Duration
	for _, r := range runs {
		d += r.simulate
	}
	return ratio(d.Seconds(), float64(len(runs)))
}
