// Command benchgate records and enforces the simulator-core benchmark
// envelope. It reads `go test -bench -benchmem` output on stdin and
// compares it against BENCH_simcore.json:
//
//	go test -run '^$' -bench ... -benchmem -benchtime=100x ./... \
//	    | go run ./scripts/benchgate -check
//
// The JSON file holds two sections. "baseline" is the pre-optimisation
// reference (never rewritten by this tool) that documents what the
// hot-path work bought; "current" is the performance envelope CI holds
// the tree to. After an intentional performance change, refresh the
// envelope with -update.
//
// Allocation counts are deterministic, so they gate tightly: a
// benchmark recorded at zero allocs/op must stay at zero, and any other
// may grow at most -alloc-tolerance (default 25%). Wall-clock ns/op on
// a shared CI box is noisy at -benchtime=100x, so it gets the wider
// -time-tolerance (default 60%) — still tight enough to catch the
// "accidentally quadratic" class of regression. Every "current" entry
// must also appear on stdin, so a deleted benchmark cannot leave a
// stale entry behind.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

type metric struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

type benchFile struct {
	Comment  string            `json:"comment,omitempty"`
	Baseline map[string]metric `json:"baseline"`
	Current  map[string]metric `json:"current"`
}

var (
	baselinePath = flag.String("baseline", "BENCH_simcore.json", "benchmark envelope file")
	update       = flag.Bool("update", false, "rewrite the \"current\" section from stdin")
	check        = flag.Bool("check", false, "fail if stdin regresses past the \"current\" section")
	allocTol     = flag.Float64("alloc-tolerance", 0.25, "allowed fractional allocs/op growth")
	timeTol      = flag.Float64("time-tolerance", 0.60, "allowed fractional ns/op growth")
)

// parseBench extracts name -> metric from `go test -bench` output.
// Benchmark names are normalized by stripping the -GOMAXPROCS suffix.
func parseBench(r *bufio.Scanner) (map[string]metric, error) {
	out := make(map[string]metric)
	for r.Scan() {
		f := strings.Fields(r.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := f[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i]
		}
		var m metric
		seenNs := false
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchgate: bad value %q in %q", f[i], r.Text())
			}
			switch f[i+1] {
			case "ns/op":
				m.NsPerOp, seenNs = v, true
			case "allocs/op":
				m.AllocsPerOp = v
			}
		}
		if !seenNs {
			continue
		}
		if old, dup := out[name]; dup {
			// Same benchmark from multiple packages would silently
			// shadow; keep the slower one to stay conservative.
			if old.NsPerOp > m.NsPerOp {
				m = old
			}
		}
		out[name] = m
	}
	return out, r.Err()
}

func load(path string) (benchFile, error) {
	var bf benchFile
	b, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(b, &bf)
}

func save(path string, bf benchFile) error {
	b, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	flag.Parse()
	if *update == *check {
		fmt.Fprintln(os.Stderr, "benchgate: exactly one of -update or -check required")
		os.Exit(2)
	}
	got, err := parseBench(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(got) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmark lines on stdin")
		os.Exit(1)
	}

	bf, err := load(*baselinePath)
	if err != nil && !os.IsNotExist(err) {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}

	if *update {
		if bf.Baseline == nil {
			// First recording: the measured numbers double as the
			// baseline until someone edits the file.
			bf.Baseline = got
		}
		bf.Current = got
		if err := save(*baselinePath, bf); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(1)
		}
		fmt.Printf("benchgate: recorded %d benchmarks into %s\n", len(got), *baselinePath)
		return
	}

	if bf.Current == nil {
		fmt.Fprintf(os.Stderr, "benchgate: %s has no \"current\" section; run -update first\n", *baselinePath)
		os.Exit(1)
	}
	failed := false
	fail := func(format string, args ...any) {
		failed = true
		fmt.Fprintf(os.Stderr, "benchgate: FAIL "+format+"\n", args...)
	}
	for name, g := range got {
		want, ok := bf.Current[name]
		if !ok {
			fail("%s: not in %s; run -update", name, *baselinePath)
			continue
		}
		switch {
		case want.AllocsPerOp == 0 && g.AllocsPerOp > 0:
			fail("%s: %v allocs/op, recorded zero-alloc", name, g.AllocsPerOp)
		case g.AllocsPerOp > want.AllocsPerOp*(1+*allocTol):
			fail("%s: %v allocs/op exceeds %v by more than %.0f%%",
				name, g.AllocsPerOp, want.AllocsPerOp, *allocTol*100)
		}
		if g.NsPerOp > want.NsPerOp*(1+*timeTol) {
			fail("%s: %.0f ns/op exceeds %.0f by more than %.0f%%",
				name, g.NsPerOp, want.NsPerOp, *timeTol*100)
		}
	}
	// A recorded benchmark that produced no line was deleted or renamed;
	// its stale envelope entry must go too.
	var missing []string
	for name := range bf.Current {
		if _, ok := got[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		fail("%s: in %s but not run; delete its entry", name, *baselinePath)
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmarks within envelope\n", len(got))
}
