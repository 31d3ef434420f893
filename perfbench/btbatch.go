package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"timr/internal/baseline"
	"timr/internal/bt"
	"timr/internal/core"
	"timr/internal/mapreduce"
	"timr/internal/temporal"
	"timr/internal/workload"
)

// bt_batch runs the paper's Figure 14/15 job the way `timr run -q bt`
// runs it: a generated 2-day log on a 16-machine simulated cluster
// (MapWorkers = min(16, GOMAXPROCS)), core.DefaultConfig, no metrics
// scope and no memory budget, the 7 stages run through core.TiMR.Run as
// bt.Pipeline.Run runs them.
//
// Each pipeline runs in a child process, so a pipeline that kills its
// process (the ScorePlan model-cache race does, in most pipelines on a
// 2-CPU host) is one failed operation and the run goes on. The child
// reports each stage as it finishes, so a pipeline that dies in Score
// still contributes the timings of the six stages before it.
//
// Whether a racing pipeline dies is down to scheduling, so deaths alone
// would make the failed share a coin toss. After its window a run also
// runs one pipeline, over a small log, in the race-detector build of
// this binary; if the detector reports a race, every pipeline of the run
// counts as failed, since each ran the same racing code.

const (
	btUsers    = 3000
	btDays     = 2
	btMachines = 16

	// setupReps is how many times each workload repeats its set-up; the
	// median is setup_s.
	setupReps = 3

	// btExtraTime bounds how long a run keeps starting pipelines after
	// its window when no pipeline in the window finished Score or
	// reached the checked stages.
	btExtraTime = 60 * time.Second

	childFlag    = "--bt-child"
	childTimeout = 150 * time.Second

	// probeUsers sizes the race probe's log and probeTries bounds how
	// many pipelines the probe runs over it. The detector flags two
	// reducers touching shared state without synchronisation even when
	// their accesses do not overlap in time, so a small log suffices;
	// it misses the ScorePlan race in about 1 pipeline in 15 here, so
	// the probe stops at the first report and otherwise tries again.
	probeUsers   = 300
	probeTries   = 4
	probeExe     = "perfbench-race" // run.sh builds it next to perfbench
	probeTimeout = 120 * time.Second
)

// checkedDatasets are the stage outputs compared with the single-node
// reference, as the bt package's own tests compare them. All exist once
// the Reduce stage has run.
var checkedDatasets = []string{bt.DSClean, bt.DSLabeled, bt.DSTrain, bt.DSScores, bt.DSReduced}

func btWorkload(seed int64) workload.Config {
	cfg := workload.DefaultConfig()
	cfg.Users, cfg.Days, cfg.Seed = btUsers, btDays, seed
	return cfg
}

// btParams mirrors `timr run -q bt`: default parameters, training on the
// first half of the log's horizon.
func btParams(rows []temporal.Row) bt.Params {
	p := bt.DefaultParams()
	p.TrainPeriod = (rows[len(rows)-1][0].AsInt() + 1) / 2
	return p
}

// stageResult is one stage's wall time and its JobStat summed over the
// stage's fragments (skew: the largest fragment's).
type stageResult struct {
	Name       string  `json:"name"`
	WallS      float64 `json:"wall_s"`
	MapS       float64 `json:"map_s"`
	ReduceS    float64 `json:"reduce_s"`
	ReduceMaxS float64 `json:"reduce_max_s"`
	ShuffleMB  float64 `json:"shuffle_mb"`
	Skew       float64 `json:"skew"`
}

// childLine is one line a pipeline child prints: its tracer origin
// first, then one line per finished stage, then a last line once the
// whole pipeline has finished.
type childLine struct {
	Origin int64        `json:"origin_unix_nano,omitempty"`
	Stage  *stageResult `json:"stage,omitempty"`
	Dumped bool         `json:"dumped,omitempty"`
	Done   bool         `json:"done,omitempty"`
	Spans  []span       `json:"spans,omitempty"`
}

// attempt is one pipeline as the parent saw it.
type attempt struct {
	stages []stageResult
	spans  []span
	origin int64
	dumped bool
	traced bool
	rssMB  float64
	err    error // nil only if the child finished every stage
}

// parseChild reads a child's stdout lines into a; lines after a crash
// never come, and the stages before it are kept.
func parseChild(out []byte, a *attempt) error {
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	done := false
	for sc.Scan() {
		var l childLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return fmt.Errorf("child output: %w", err)
		}
		if l.Origin != 0 {
			a.origin = l.Origin
		}
		if l.Stage != nil {
			a.stages = append(a.stages, *l.Stage)
		}
		for _, sp := range l.Spans {
			if sp.ID < len(a.spans) {
				a.spans[sp.ID] = sp // a later report of the pipeline span
			} else {
				a.spans = append(a.spans, sp)
			}
		}
		a.dumped = a.dumped || l.Dumped
		done = done || l.Done
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !done {
		return fmt.Errorf("child finished %d of %d stages", len(a.stages), len(btStages))
	}
	return nil
}

func runBTBatch(o options) (*report, error) {
	tr := newTracer(o.trace)
	rep := &report{values: map[string]float64{}}

	var d *workload.Dataset
	gens, err := setUp(tr, "workload.gen", func() error {
		d = workload.Generate(btWorkload(o.seed))
		return nil
	})
	if err != nil {
		return nil, err
	}
	tag := fmt.Sprintf("bt-%d", os.Getpid())
	logPath := filepath.Join(o.out, tag+".log")
	dumpPath := filepath.Join(o.out, tag+".out")
	defer os.Remove(logPath)
	defer os.Remove(dumpPath)
	if err := writeRows(logPath, d.Rows); err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}

	var runs []attempt
	dumped, scored := false, false
	launch := func() {
		// A traced run alternates traced and untraced pipelines, so the
		// tracing overhead is measured within the run.
		a := attempt{traced: o.trace && len(runs)%2 == 0}
		args := []string{childFlag, "--log", logPath}
		if !dumped {
			args = append(args, "--dump", dumpPath)
		}
		if a.traced {
			args = append(args, "--trace")
		}
		out, rss, err := runChild(exe, args, childTimeout, nil)
		a.rssMB = rss
		if perr := parseChild(out, &a); err == nil {
			err = perr
		}
		a.err = err
		walls := make([]string, len(a.stages))
		for i, s := range a.stages {
			walls[i] = fmt.Sprintf("%.3f", s.WallS)
		}
		fmt.Fprintf(os.Stderr, "perfbench: pipeline %d: stages %s s", len(runs), strings.Join(walls, " "))
		if err != nil {
			fmt.Fprintf(os.Stderr, "; failed: %v", err)
		}
		fmt.Fprintln(os.Stderr)
		dumped = dumped || a.dumped
		scored = scored || len(a.stages) == len(btStages)
		tr.adopt(a.spans, a.origin, len(runs)+1)
		runs = append(runs, a)
	}
	w := newWindow(o.seconds)
	for w.open() {
		launch()
	}
	for extra := newWindow(btExtraTime.Seconds()); !(dumped && scored) && extra.open(); {
		launch()
	}

	// Correctness, outside every timed region: the stage outputs of the
	// first pipeline to reach them must equal the single-node engine's.
	p := btParams(d.Rows)
	id := tr.begin("bt.singlenode", -1)
	start := time.Now()
	single, err := bt.RunSingleNode(p, d.Events())
	rep.values["bt.singlenode_s"] = time.Since(start).Seconds()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	rep.correct = dumped && checkDump(dumpPath, single)
	if !scored {
		fmt.Fprintln(os.Stderr, "perfbench: no pipeline finished Score; job_s covers six stages")
	}

	id = tr.begin("bt.raceprobe", -1)
	start = time.Now()
	race := raceProbe(o, filepath.Join(filepath.Dir(exe), probeExe))
	tr.end(id)
	verdict := "no race"
	if race != nil {
		verdict = race.Error()
	}
	fmt.Fprintf(os.Stderr, "perfbench: race probe (%.1f s): %s\n", time.Since(start).Seconds(), verdict)
	countPipelines(&rep.ops, runs, race)

	job, jobTail := pipelineTime(runs, btStages, nil)
	var rss []float64
	for _, a := range runs {
		rss = append(rss, a.rssMB)
	}
	rep.setEndToEnd(gens, median(rss), job, len(d.Rows), job, jobTail)

	if o.trace {
		id := tr.begin("baseline.custom", -1)
		custom, err := runCustom(d.Rows, p)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		btLayers(rep.values, runs)
		firstSix := 0.0
		for _, s := range btStages[:6] {
			firstSix += rep.values["bt."+s+".wall_s"]
		}
		rep.values["baseline.custom_s"] = custom
		rep.values["baseline.fig14_ratio"] = firstSix / custom
		rep.values["workload.gen_s"] = median(gens)
		// Over the first six stages: few pipelines of either kind finish Score.
		traced, _ := pipelineTime(runs, btStages[:6], func(a attempt) bool { return a.traced })
		untraced, _ := pipelineTime(runs, btStages[:6], func(a attempt) bool { return !a.traced })
		if untraced > 0 {
			rep.values["trace.overhead_ratio"] = traced / untraced
		}
		rep.spans = tr.spans
	}
	return rep, nil
}

// countPipelines records one operation per pipeline: failed if its
// child died or erred, or if race, the race probe's verdict, is non-nil.
func countPipelines(ops *opCount, runs []attempt, race error) {
	for _, a := range runs {
		err := a.err
		if err == nil {
			err = race
		}
		ops.record(err)
	}
}

// raceProbe runs up to probeTries pipelines over a probeUsers log
// generated from the run's seed, in the race-detector build raceExe,
// with the cluster of the timed pipelines. It returns nil when every
// pipeline finishes and the detector reports nothing, and otherwise an
// error naming the first race or failure.
func raceProbe(o options, raceExe string) error {
	cfg := btWorkload(o.seed)
	cfg.Users = probeUsers
	logPath := filepath.Join(o.out, fmt.Sprintf("probe-%d.log", os.Getpid()))
	defer os.Remove(logPath)
	if err := writeRows(logPath, workload.Generate(cfg).Rows); err != nil {
		return err
	}
	for i := 0; i < probeTries; i++ {
		// The detector exits at its first report, with status 66.
		out, _, err := runChild(raceExe, []string{childFlag, "--log", logPath}, probeTimeout,
			[]string{"GORACE=halt_on_error=1 exitcode=66"})
		if err == nil {
			err = parseChild(out, &attempt{})
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// pipelineTime estimates the wall time of the given stages of one
// pipeline from the attempts keep selects (all when nil): the sum over
// stages of the median stage wall time, and the sum of the stage tails.
// Stages run one after another, so the sum of medians tracks the median
// pipeline; a stage's samples come from every attempt that finished it.
func pipelineTime(runs []attempt, stages []string, keep func(attempt) bool) (med, tl float64) {
	walls := map[string][]float64{}
	for _, a := range runs {
		if keep != nil && !keep(a) {
			continue
		}
		for _, s := range a.stages {
			walls[s.Name] = append(walls[s.Name], s.WallS)
		}
	}
	for _, s := range stages {
		med += median(walls[s])
		t, _ := tail(walls[s])
		tl += t
	}
	return med, tl
}

// btLayers sets the per-stage metrics, each the median over the
// attempts that finished the stage, and the self time of the pipeline
// spans of traced pipelines, up to the last stage each finished.
func btLayers(values map[string]float64, runs []attempt) {
	per := map[string][]float64{}
	add := func(k string, v float64) { per[k] = append(per[k], v) }
	var self []float64
	for _, a := range runs {
		for _, s := range a.stages {
			add("bt."+s.Name+".wall_s", s.WallS)
			add("mapreduce."+s.Name+".map_s", s.MapS)
			add("mapreduce."+s.Name+".reduce_s", s.ReduceS)
			add("mapreduce."+s.Name+".reduce_max_s", s.ReduceMaxS)
			add("mapreduce."+s.Name+".shuffle_mb", s.ShuffleMB)
			add("mapreduce."+s.Name+".skew", s.Skew)
		}
		if a.traced && len(a.spans) > 0 {
			self = append(self, selfSeconds(a.spans, "bt.pipeline"))
		}
	}
	for k, xs := range per {
		values[k] = median(xs)
	}
	values["bt.pipeline.self_s"] = median(self)
}

// runCustom times the hand-written Figure 14 reducers on the same log
// and cluster configuration, in this process: they share no mutable
// state across reducers, so they cannot die the way a pipeline can.
func runCustom(rows []temporal.Row, p bt.Params) (float64, error) {
	cl := mapreduce.NewCluster(mapreduce.Config{Machines: btMachines})
	defer cl.Close()
	cl.FS.Write("events", mapreduce.SinglePartition(workload.UnifiedSchema(), rows))
	cp := baseline.CustomParams{
		T1: p.T1, T2: p.T2, BotHop: p.BotHop, Tau: p.Tau, D: p.D,
		TrainPeriod: p.TrainPeriod, ZThreshold: p.ZThreshold, ModelEpochs: p.ModelEpochs,
	}
	start := time.Now()
	if _, err := baseline.CustomBTJob(cl, "events", cp); err != nil {
		return 0, fmt.Errorf("custom BT job: %w", err)
	}
	return time.Since(start).Seconds(), nil
}

// checkDump compares the dumped stage outputs with the reference.
func checkDump(path string, single map[string][]temporal.Event) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reading pipeline outputs:", err)
		return false
	}
	dec := temporal.NewDecoder(data)
	ok := true
	for _, ds := range checkedDatasets {
		got := dec.Events()
		if dec.Err() != nil {
			fmt.Fprintln(os.Stderr, "perfbench: decoding pipeline outputs:", dec.Err())
			return false
		}
		if !temporal.EventsEqual(got, single[ds]) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: TiMR %d events != single-node %d events\n", ds, len(got), len(single[ds]))
			ok = false
		}
	}
	return ok && dec.Done() == nil
}

// runChild runs exe with args, and env added to this process's
// environment, and returns its standard output and its peak resident
// set in MB, also when it fails. A child that exits non-zero, is
// killed, or outlives timeout is an error naming the line of its stderr
// that says why.
func runChild(exe string, args []string, timeout time.Duration, env []string) ([]byte, float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	if env != nil {
		cmd.Env = append(os.Environ(), env...)
	}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	rss := 0.0
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rss = float64(ru.Maxrss) / 1024 // Linux reports KB
		}
	}
	if err != nil {
		err = fmt.Errorf("%v: %s", err, crashLine(stderr.String()))
	}
	return stdout.Bytes(), rss, err
}

// crashLine picks the line of a child's stderr that says why it died.
// For a race-detector report it is the warning and the first frame of
// this repository's code in the racing access's stack.
func crashLine(stderr string) string {
	lines := strings.Split(stderr, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "WARNING: DATA RACE") {
			for _, f := range lines[i+1:] {
				if f = strings.TrimSpace(f); strings.HasPrefix(f, "timr/") {
					return "data race in " + f
				}
			}
			return "data race"
		}
	}
	for _, l := range lines {
		if strings.HasPrefix(l, "fatal error:") || strings.HasPrefix(l, "panic:") || strings.HasPrefix(l, "perfbench") {
			return l
		}
	}
	if l, _, _ := strings.Cut(strings.TrimSpace(stderr), "\n"); l != "" {
		return l
	}
	return "no diagnostics"
}

// writeRows stores the generated log for the pipeline children.
func writeRows(path string, rows []temporal.Row) error {
	var w temporal.Encoder
	w.Uvarint(uint64(len(rows)))
	for _, r := range rows {
		w.Row(r)
	}
	return os.WriteFile(path, w.Bytes(), 0o644)
}

func readRows(path string) ([]temporal.Row, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := temporal.NewDecoder(data)
	n := dec.Count("rows")
	rows := make([]temporal.Row, 0, n)
	for i := 0; i < n && dec.Err() == nil; i++ {
		rows = append(rows, dec.Row())
	}
	if err := dec.Done(); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return rows, nil
}

// btChildMain runs one pipeline over the stored log, printing a
// childLine as each stage finishes. With --dump it writes the checked
// stage outputs once they exist, between two timed stages.
func btChildMain(args []string) int {
	fs := flag.NewFlagSet("perfbench child", flag.ContinueOnError)
	logPath := fs.String("log", "", "stored log")
	dumpPath := fs.String("dump", "", "write the checked stage outputs here")
	traced := fs.Bool("trace", false, "record spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := runPipeline(*logPath, *dumpPath, *traced, json.NewEncoder(os.Stdout)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

func runPipeline(logPath, dumpPath string, traced bool, out *json.Encoder) error {
	rows, err := readRows(logPath)
	if err != nil {
		return err
	}
	tr := newTracer(traced)
	if err := out.Encode(childLine{Origin: tr.origin.UnixNano()}); err != nil {
		return err
	}
	cl := mapreduce.NewCluster(mapreduce.Config{Machines: btMachines})
	defer cl.Close()
	cl.FS.Write("events", mapreduce.SinglePartition(workload.UnifiedSchema(), rows))
	t := core.New(cl, core.DefaultConfig())
	p := btParams(rows)

	root := tr.begin("bt.pipeline", -1)
	for _, st := range bt.Stages(false) {
		sources := make(map[string]string, len(st.Inputs))
		for src, ds := range st.Inputs {
			if ds == bt.DSEvents {
				ds = "events"
			}
			sources[src] = ds
		}
		id := tr.begin("bt."+st.Name, root)
		start := time.Now()
		stat, err := t.Run(st.Plan(p, true), sources, st.Output)
		wall := time.Since(start)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("stage %s: %w", st.Name, err)
		}
		line := childLine{Stage: stageOf(st.Name, wall, stat)}
		if id >= 0 {
			// The pipeline span so far, then the stage's: a pipeline that
			// dies later keeps a root covering the stages it finished.
			tr.end(root)
			line.Spans = []span{tr.spans[root], tr.spans[id]}
		}
		if st.Output == bt.DSReduced && dumpPath != "" {
			if err := dumpOutputs(t, dumpPath); err != nil {
				return err
			}
			line.Dumped = true
		}
		if err := out.Encode(line); err != nil {
			return err
		}
	}
	tr.end(root)
	last := childLine{Done: true}
	if root >= 0 {
		last.Spans = []span{tr.spans[root]}
	}
	return out.Encode(last)
}

// dumpOutputs writes the checked stage outputs for the parent's check.
func dumpOutputs(t *core.TiMR, path string) error {
	var w temporal.Encoder
	for _, ds := range checkedDatasets {
		evs, err := t.ResultEvents(ds)
		if err != nil {
			return err
		}
		w.Events(evs)
	}
	return os.WriteFile(path, w.Bytes(), 0o644)
}

// stageOf sums a stage's JobStat over its fragments.
func stageOf(name string, wall time.Duration, stat *mapreduce.JobStat) *stageResult {
	s := &stageResult{Name: name, WallS: wall.Seconds()}
	for i := range stat.Stages {
		st := &stat.Stages[i]
		s.MapS += st.TotalMapTime().Seconds()
		for _, task := range st.Tasks {
			s.ReduceS += task.Duration.Seconds()
			s.ReduceMaxS = max(s.ReduceMaxS, task.Duration.Seconds())
		}
		s.ShuffleMB += float64(st.ShuffleBytes) / (1 << 20)
		s.Skew = max(s.Skew, st.RowSkew())
	}
	return s
}
