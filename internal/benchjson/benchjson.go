// Package benchjson runs the repo's headline benchmarks (shuffle,
// spill, Fig. 15, Fig. 16, the engine feed path, the serving tier, the
// incremental-refresh delta-vs-full pair) and
// writes the results as machine-readable JSON — the perf trajectory
// file tracked across PRs. It shells out to `go test -bench` (stdlib
// only, no benchstat dependency) and parses the standard benchmark
// output format, keeping ns/op plus any custom metrics the benchmarks
// report (rows/s, events/sec, p99_us, ...).
//
// `timr bench-json` fronts this package.
package benchjson

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// Result is one benchmark measurement.
type Result struct {
	Op      string             `json:"op"`                // benchmark name, GOMAXPROCS suffix stripped
	Package string             `json:"package"`           // Go package the benchmark lives in
	Iters   int64              `json:"iters"`             // b.N of the final run
	NsPerOp float64            `json:"ns_per_op"`         // wall time per op
	Metrics map[string]float64 `json:"metrics,omitempty"` // custom b.ReportMetric values (rows/s, ...)
}

// benchLine matches e.g.
//
//	BenchmarkShuffle_1M_Parallel-8   3   152391505 ns/op   6880823 rows/s
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(.*)$`)

// metricPair matches trailing "value unit" pairs after ns/op.
var metricPair = regexp.MustCompile(`([\d.eE+-]+) (\S+)`)

// Parse extracts benchmark results from `go test -bench` output.
func Parse(pkg string, out []byte, into *[]Result) {
	for _, line := range strings.Split(string(out), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		r := Result{Op: strings.TrimPrefix(m[1], "Benchmark"), Package: pkg, Iters: iters, NsPerOp: ns}
		for _, mp := range metricPair.FindAllStringSubmatch(m[4], -1) {
			v, err := strconv.ParseFloat(mp[1], 64)
			if err != nil {
				continue
			}
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[mp[2]] = v
		}
		*into = append(*into, r)
	}
}

// Run is one `go test -bench` invocation of the harness.
type Run struct {
	Pkg, Pattern, Benchtime string
}

// RunCLI is the entry point of the `timr bench-json` subcommand. args are
// the flags after the subcommand name.
func RunCLI(args []string) error {
	fs := flag.NewFlagSet("bench-json", flag.ContinueOnError)
	out := fs.String("out", "BENCH_pr10.json", "output JSON file")
	pattern := fs.String("bench", "Shuffle_1M|Spill_1M|FlattenResident|MergeRuns|MergeStableSort|Fig15|Fig16", "benchmark regexp")
	benchtime := fs.String("benchtime", "3x", "go test -benchtime value")
	feedtime := fs.String("feedbenchtime", "20x", "benchtime for the EngineFeed pair")
	servetime := fs.String("servebenchtime", "3x", "benchtime for the serving-tier benchmark")
	if err := fs.Parse(args); err != nil {
		return err
	}

	runs := []Run{
		{"./internal/mapreduce", *pattern, *benchtime},
		{"./internal/core", *pattern, *benchtime},
		{".", *pattern, *benchtime},
		// The engine feed-path pair finishes in microseconds per op; a
		// 3-iteration run is noise-dominated, so it gets more iterations.
		{".", "EngineFeed", *feedtime},
		// The serving tier: open-loop scoring latency and throughput.
		{"./internal/serve", "ServeOpenLoop", *servetime},
		// Incremental refresh: day 7 of the sliding window as a delta vs
		// a full recompute of the whole history.
		{"./internal/bt", "Refresh_", "3x"},
	}
	var results []Result
	for _, r := range runs {
		fmt.Fprintf(os.Stderr, "bench-json: %s -bench %q -benchtime %s\n", r.Pkg, r.Pattern, r.Benchtime)
		cmd := exec.Command("go", "test", "-run", "^$", "-bench", r.Pattern, "-benchtime", r.Benchtime, r.Pkg)
		raw, err := cmd.CombinedOutput()
		if err != nil {
			return fmt.Errorf("bench-json: %s failed: %v\n%s", r.Pkg, err, raw)
		}
		Parse(r.Pkg, raw, &results)
	}
	if len(results) == 0 {
		return fmt.Errorf("bench-json: no benchmarks matched")
	}
	enc, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench-json: wrote %d results to %s\n", len(results), *out)
	return nil
}
