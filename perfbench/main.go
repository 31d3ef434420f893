// Command perfbench is the repository's end-to-end benchmark. It runs one
// of three workloads against the timr packages from the outside — it
// only calls their exported functions — checks the outputs against a
// reference, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload bt_batch --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, derived from spans the
// benchmark records around its calls into each module, and the spans are
// written as a Chrome trace-event file. README.md lists the workloads,
// every metric and the layer each one belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics a --trace 0 run prints, in BENCHMARK.json's
// order. Every workload prints all of them; README.md defines each one
// per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"job_s", "s"},
	{"max_rps", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"ingest_s", "s"},
	{"ingest_tail_s", "s"},
}

// btStages are the BT pipeline stages, in DAG order.
var btStages = []string{"BotElim", "Label", "TrainData", "FeatureSelect", "Reduce", "Model", "Score"}

// perLayer lists the metrics a --trace 1 run prints. A layer a workload
// never enters reads 0.
func perLayer() []metricDef {
	var defs []metricDef
	for _, s := range btStages {
		defs = append(defs,
			metricDef{"bt." + s + ".wall_s", "s"},
			metricDef{"mapreduce." + s + ".map_s", "s"},
			metricDef{"mapreduce." + s + ".reduce_s", "s"},
			metricDef{"mapreduce." + s + ".reduce_max_s", "s"},
			metricDef{"mapreduce." + s + ".shuffle_mb", "MB"},
			metricDef{"mapreduce." + s + ".skew", "ratio"},
		)
	}
	return append(defs,
		metricDef{"bt.pipeline.self_s", "s"},
		metricDef{"bt.singlenode_s", "s"},
		metricDef{"baseline.custom_s", "s"},
		metricDef{"baseline.fig14_ratio", "ratio"},
		metricDef{"workload.gen_s", "s"},
		metricDef{"core.feed_us.p50", "us"},
		metricDef{"core.feed_us.p99", "us"},
		metricDef{"core.advance_ms.p50", "ms"},
		metricDef{"core.advance_ms.p99", "ms"},
		metricDef{"core.ckpt_kb_per_wave", "KB"},
		metricDef{"core.flush_ms", "ms"},
		metricDef{"serve.rows_per_impression", "count"},
		metricDef{"serve.gen_late_ms.max", "ms"},
		metricDef{"serve.backlog_max", "count"},
		metricDef{"serve.scored_share", "ratio"},
		metricDef{"serve.driver.self_s", "s"},
		metricDef{"bt.refresh.front_s", "s"},
		metricDef{"bt.refresh.counts_s", "s"},
		metricDef{"bt.refresh.model_s", "s"},
		metricDef{"bt.refresh.rest_s", "s"},
		metricDef{"bt.refresh.recompute_ratio", "ratio"},
		metricDef{"bt.refresh.delta_share", "ratio"},
		metricDef{"dur.mb_per_day", "MB"},
		metricDef{"dur.commit_failures", "count"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // scratch directory for logs, stores and traces
}

// report is what a workload returns: operation counts, the outcome of
// its correctness check, and every metric it measured by name. The
// caller picks the end-to-end or per-layer subset.
type report struct {
	ops     opCount
	correct bool
	values  map[string]float64
	spans   []span
}

var workloads = map[string]func(options) (*report, error){
	"bt_batch":      runBTBatch,
	"serve_open":    runServeOpen,
	"refresh_daily": runRefreshDaily,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == childFlag {
		os.Exit(btChildMain(os.Args[2:]))
	}
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "bt_batch | serve_open | refresh_daily")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: every input is generated from it")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1: record spans and print per-layer metrics")
	fs.Parse(os.Args[1:])
	o.trace = trace == 1
	o.out = ".bench_build" // run.sh's build directory, in the checkout

	run, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q\n", o.workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	prov := provenance(o)
	line, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Println(string(line))

	steal0, start := stealSeconds(), time.Now()
	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	// CPU time the hypervisor gave to other guests while this run was
	// going: on a shared host it explains runs that read slow.
	line, _ = json.Marshal(map[string]any{"host": map[string]float64{
		"run_s": time.Since(start).Seconds(), "steal_s": stealSeconds() - steal0}})
	fmt.Println(string(line))
	defs := endToEnd
	if o.trace {
		defs = perLayer()
		path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
		if err := writeChromeTrace(path, rep.spans, prov); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(rep.spans), path)
	}
	res := result{
		Correct:   rep.correct,
		Attempted: rep.ops.attempted,
		Failed:    rep.ops.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: rep.values[d.name], Unit: d.unit}
	}
	printTable(os.Stderr, o, res, defs)
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
	if !rep.correct {
		os.Exit(1)
	}
}

// printTable writes the metrics by name, with units, for a reader.
func printTable(w *os.File, o options, res result, defs []metricDef) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v: attempted=%d failed=%d correct=%v\n",
		o.workload, o.seed, o.seconds, o.trace, res.Attempted, res.Failed, res.Correct)
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.name)
	}
	if o.trace {
		sort.Strings(names)
	}
	skipped := 0
	for _, n := range names {
		m := res.Metrics[n]
		if o.trace && m.Value == 0 {
			skipped++ // a layer this workload does not enter
			continue
		}
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if skipped > 0 {
		fmt.Fprintf(w, "  (%d per-layer metrics read 0 and are not shown)\n", skipped)
	}
}

// setUp runs fn setupReps times, each from a collected heap, and
// returns how long each took in seconds: setup_s is their median.
func setUp(tr *tracer, name string, fn func() error) ([]float64, error) {
	var secs []float64
	for i := 0; i < setupReps; i++ {
		settle(false)
		id := tr.begin(name, -1)
		start := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		tr.end(id)
	}
	return secs, nil
}

// setEndToEnd fills the end-to-end metrics from a workload's unit job
// (jobS over records input records) and its per-operation latency
// (median and tail, in seconds), which is reported in ms and in s.
func (r *report) setEndToEnd(setups []float64, rssMB, jobS float64, records int, opS, opTailS float64) {
	r.values["setup_s"] = median(setups)
	r.values["peak_rss_mb"] = rssMB
	r.values["job_s"] = jobS
	if jobS > 0 {
		r.values["max_rps"] = float64(records) / jobS
	}
	r.values["p50_ms"] = opS * 1e3
	r.values["p99_ms"] = opTailS * 1e3
	r.values["ingest_s"] = opS
	r.values["ingest_tail_s"] = opTailS
}

// window is a measured interval of --seconds: work starts only while it
// is open, so a run ends at most one operation after it closes.
type window struct {
	start time.Time
	span  time.Duration
}

func newWindow(seconds float64) window {
	return window{start: time.Now(), span: time.Duration(seconds * float64(time.Second))}
}

func (w window) open() bool { return time.Since(w.start) < w.span }
