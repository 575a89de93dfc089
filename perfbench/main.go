// Command perfbench is the repository benchmark. It drives the simulator
// from outside, through ibasec.Build and Cluster.Simulate, on a fixed set
// of workloads; checks every run's output; and prints the result as one
// JSON object on the last line of standard output: end-to-end metrics
// with -trace 0, per-layer metrics (CPU-profile attribution, counts and
// micro-timings) with -trace 1.
//
//	bash perfbench/run.sh --workload fig5_dpt --seed 1 --seconds 35 --trace 0
//
// A run set simulates the workload's sub-seeds (derived from -seed) in
// passes, one after another on one goroutine, while one more pass fits
// in -seconds. The exit status is non-zero when any run fails its
// checks.
// LAYERS.md records why each workload exists and which layer metric
// should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// traceDir receives the traced run's spans and CPU profile.
const traceDir = ".bench_build/trace"

func main() {
	name := flag.String("workload", "fig5_dpt", "workload to run, or \"all\"")
	seed := flag.Int64("seed", 1, "input seed (default seed 1; held-out seed 1009)")
	seconds := flag.Int("seconds", 35, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()

	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workload{w}
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1\n")
		os.Exit(2)
	}
	budget := time.Duration(*seconds) * time.Second

	ok := true
	for _, w := range selected {
		b := newBench(w, *seed, budget)
		var out report
		var err error
		if *trace == 1 {
			out, err = b.traced(traceDir)
		} else {
			out = b.untraced()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		out.print(w.name)
		ok = ok && out.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes one "name value unit" line per metric, then the JSON
// result line.
func (r report) print(workload string) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s: %d runs, %d failed\n", workload, r.Attempted, r.Failed)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of finite floats always marshals
	}
	fmt.Println(string(line))
}
