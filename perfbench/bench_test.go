package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"timr/internal/temporal"
	"timr/internal/workload"
)

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.9}, {100, 0.9}, {40, 0.75},
		{39, 0.9}, // no rung has ten beyond: p90, logged with n
	} {
		if got := tailQ(tc.n); got != tc.want {
			t.Errorf("tailQ(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	v, q := tail(xs)
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if q != 0.99 || v != 990 || beyond != 10 {
		t.Fatalf("tail of 1..1000 = %v at p%g with %d beyond, want 990 at p99 with 10 beyond", v, q*100, beyond)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// fakeClock advances only when told to, or when slept on.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestLatencyIsMeasuredFromDueTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	clk := &fakeClock{now: t0}
	sched := schedule{start: t0, gap: time.Millisecond}
	const n = 8
	out := make(chan arrival, n)
	seq := 0
	next := func() workload.Request {
		seq++
		return workload.Request{Seq: seq - 1, Time: temporal.Time(seq - 1)}
	}
	generate(sched, n, next, out, clk)

	// The consumer scores each request 1 ms after taking it, but stalls
	// for 10 ms before request 3: every later request waits behind it.
	lat := newLatencies()
	consumer := t0
	for a := range out {
		consumer = maxTime(consumer, a.due)
		if a.req.Seq == 3 {
			consumer = consumer.Add(10 * time.Millisecond)
		}
		lat.issue(a.req.Time, a.due)
		consumer = consumer.Add(time.Millisecond)
		lat.deliver(a.req.Time, consumer)
	}
	want := []float64{1, 1, 1, 11, 11, 11, 11, 11}
	if fmt.Sprint(lat.ms) != fmt.Sprint(want) {
		t.Fatalf("latencies = %v ms, want %v: requests after a stall must count the time they waited", lat.ms, want)
	}
	lat.deliver(temporal.Time(3), consumer.Add(time.Second)) // a second delivery of one score
	if lat.scored() != n {
		t.Fatalf("scored = %d, want %d", lat.scored(), n)
	}
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func TestGeneratorLateness(t *testing.T) {
	t0 := time.Unix(1000, 0)
	clk := &fakeClock{now: t0}
	// Requests are due every 1 ms but each takes 3 ms to generate, so
	// request i is sent at 3(i+1) ms, 2i+3 ms after it was due.
	next := func() workload.Request {
		clk.now = clk.now.Add(3 * time.Millisecond)
		return workload.Request{}
	}
	const n = 5
	out := make(chan arrival, n)
	st := generate(schedule{start: t0, gap: time.Millisecond}, n, next, out, clk)
	if st.lateMax != 11*time.Millisecond {
		t.Fatalf("lateMax = %v, want 11ms", st.lateMax)
	}
	if st.backlogMax != n {
		t.Fatalf("backlogMax = %d, want %d with no consumer", st.backlogMax, n)
	}

	// On schedule: sleeping until due makes every send exactly on time.
	clk.now = t0
	out = make(chan arrival, n)
	st = generate(schedule{start: t0.Add(time.Second), gap: time.Millisecond}, n,
		func() workload.Request { return workload.Request{} }, out, clk)
	if st.lateMax != 0 {
		t.Fatalf("lateMax = %v on schedule, want 0", st.lateMax)
	}
}

func TestSelfTimeSubtractsChildSpans(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // runs past root
		{ID: 4, Parent: 2, Name: "d", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := []time.Duration{50, 20, 20, 30, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	if got := selfSeconds(spans, "root"); got != 50e-9 {
		t.Errorf("selfSeconds(root) = %v", got)
	}

	// Adopted spans keep their tree under new ids and a shifted origin.
	tr := newTracer(true)
	tr.adopt(spans[:2], tr.origin.UnixNano()+1000, 7)
	tr.adopt(spans[:2], tr.origin.UnixNano(), 8)
	if s := tr.spans[3]; s.ID != 3 || s.Parent != 2 || s.Run != 8 || s.Start != 10 {
		t.Fatalf("adopted span = %+v", s)
	}
	if s := tr.spans[1]; s.Start != 1010 || s.Run != 7 {
		t.Fatalf("shifted span = %+v", s)
	}
}

// TestHelperChild is not a test: run with PERFBENCH_HELPER set, it plays
// a pipeline child that reports one stage and then dies, or finishes.
func TestHelperChild(t *testing.T) {
	mode := os.Getenv("PERFBENCH_HELPER")
	if mode == "" {
		t.Skip("helper process")
	}
	enc := json.NewEncoder(os.Stdout)
	enc.Encode(childLine{Origin: 1})
	enc.Encode(childLine{Stage: &stageResult{Name: "BotElim", WallS: 0.5}})
	if mode == "die" {
		fmt.Fprintln(os.Stderr, "fatal error: concurrent map read and map write")
		os.Exit(2)
	}
	for _, s := range btStages[1:] {
		enc.Encode(childLine{Stage: &stageResult{Name: s, WallS: 0.25}})
	}
	enc.Encode(childLine{Done: true})
	os.Exit(0)
}

func TestFailuresAreCounted(t *testing.T) {
	var ops opCount
	var runs []attempt
	for _, mode := range []string{"die", "finish", "die"} {
		t.Setenv("PERFBENCH_HELPER", mode) // inherited by the child
		out, _, err := runChild(os.Args[0], []string{"-test.run=^TestHelperChild$"}, time.Minute, nil)
		var a attempt
		if perr := parseChild(out, &a); err == nil {
			err = perr
		}
		a.err = err
		ops.record(err)
		runs = append(runs, a)
	}
	if ops.attempted != 3 || ops.failed != 2 {
		t.Fatalf("ops = %+v, want 3 attempted, 2 failed", ops)
	}
	if runs[0].err == nil || len(runs[0].stages) != 1 {
		t.Fatalf("dead child: err %v, %d stages kept; want an error and its finished stage", runs[0].err, len(runs[0].stages))
	}
	if got := runs[0].err.Error(); !strings.Contains(got, "fatal error: concurrent map read and map write") {
		t.Fatalf("dead child's error %q does not say why it died", got)
	}
	// Stage samples from the dead children count; Score only from the
	// pipeline that finished.
	med, _ := pipelineTime(runs, btStages, nil)
	if want := 0.5 + 6*0.25; med != want {
		t.Fatalf("pipeline time = %v, want %v", med, want)
	}
	ops.record(errors.New("x"))
	ops.record(nil)
	if ops.attempted != 5 || ops.failed != 3 {
		t.Fatalf("ops = %+v", ops)
	}
}

// TestRaceVerdictFailsEveryPipeline: a pipeline that survived a race
// the probe reports counts as failed, like the ones it killed, so the
// failed share does not depend on scheduling luck.
func TestRaceVerdictFailsEveryPipeline(t *testing.T) {
	runs := []attempt{{err: errors.New("exit status 2")}, {}, {}}
	var clean, racy opCount
	countPipelines(&clean, runs, nil)
	if clean.attempted != 3 || clean.failed != 1 {
		t.Fatalf("no race: ops = %+v, want 3 attempted, 1 failed", clean)
	}
	countPipelines(&racy, runs, errors.New("data race"))
	if racy.attempted != 3 || racy.failed != 3 {
		t.Fatalf("race: ops = %+v, want 3 attempted, 3 failed", racy)
	}
}

func TestCrashLineNamesTheRace(t *testing.T) {
	report := `==================
WARNING: DATA RACE
Write at 0x00c000123456 by goroutine 42:
  runtime.mapassign_faststr()
      /usr/local/go/src/internal/runtime/maps/runtime_faststr.go:263 +0x0
  timr/internal/bt.ScorePlan.func1()
      /src/internal/bt/score.go:56 +0x1d0
`
	if got, want := crashLine(report), "data race in timr/internal/bt.ScorePlan.func1()"; got != want {
		t.Fatalf("crashLine = %q, want %q", got, want)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// the runs print in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, perfbench prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, perfbench %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer())
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench runs %d", len(b.Workloads), len(workloads))
	}
}
