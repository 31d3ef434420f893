package core

import (
	"fmt"

	"timr/internal/mapreduce"
	"timr/internal/obs"
	"timr/internal/temporal"
)

// Intermediate datasets carry event lifetimes in two leading columns
// (paper footnote 2 extends the Time-column convention to interval
// events; we adopt the extension for all TiMR-produced data).
const (
	ColLE = "__LE"
	ColRE = "__RE"
)

// TimeColumn is the mandated first column of raw source datasets
// (paper §III-A step 4).
const TimeColumn = "Time"

// IntermediateSchema wraps a payload schema with lifetime columns.
func IntermediateSchema(payload *temporal.Schema) *temporal.Schema {
	fields := []temporal.Field{
		{Name: ColLE, Kind: temporal.KindInt},
		{Name: ColRE, Kind: temporal.KindInt},
	}
	return temporal.NewSchema(append(fields, payload.Fields()...)...)
}

// EventsToRows converts engine output events into intermediate rows. All
// rows are carved from one backing slab: reducer outputs are written to
// the FS wholesale, so slab lifetime matches row lifetime.
func EventsToRows(events []temporal.Event) []mapreduce.Row {
	total := 0
	for _, e := range events {
		total += 2 + len(e.Payload)
	}
	slab := make(temporal.Row, total)
	rows := make([]mapreduce.Row, len(events))
	for i, e := range events {
		n := 2 + len(e.Payload)
		row := slab[:n:n]
		slab = slab[n:]
		row[0], row[1] = temporal.Int(e.LE), temporal.Int(e.RE)
		copy(row[2:], e.Payload)
		rows[i] = row
	}
	return rows
}

// RowsToEvents converts intermediate rows back into events.
func RowsToEvents(rows []mapreduce.Row) []temporal.Event {
	events := make([]temporal.Event, len(rows))
	for i, r := range rows {
		events[i] = temporal.Event{LE: r[0].AsInt(), RE: r[1].AsInt(), Payload: r[2:]}
	}
	return events
}

// Config tunes the TiMR runtime.
type Config struct {
	// CTIPeriod is the application-time interval between punctuations
	// injected by reducers; it bounds engine state during a partition run.
	CTIPeriod temporal.Time
	// SpanWidth overrides the output-span width for temporal
	// partitioning (§III-B). Zero (the default) auto-sizes spans to give
	// the cluster about two tasks per machine, floored at twice the
	// fragment's window so overlap duplication stays below ~50%.
	SpanWidth temporal.Time
	// Coalesce canonicalizes fragment output (merging events fragmented
	// at CTI boundaries) before it is written back to the FS.
	Coalesce bool
	// Obs, when set, receives per-operator engine metrics under a
	// "frag.<name>" child scope per fragment (batch reducers) or
	// "stream.<name>" (streaming stages). Engines of all partitions of a
	// fragment share the scope, so counts aggregate across the cluster.
	// Nil disables instrumentation.
	Obs *obs.Scope
	// Crash configures deterministic partition crash injection in
	// streaming jobs (see CrashConfig). The zero value disables it.
	Crash CrashConfig
}

// DefaultConfig mirrors the defaults used throughout the evaluation.
func DefaultConfig() Config {
	return Config{
		CTIPeriod: 15 * temporal.Minute,
		Coalesce:  true,
	}
}

// TiMR binds a cluster to the framework configuration.
type TiMR struct {
	Cluster *mapreduce.Cluster
	Cfg     Config
}

// New builds a TiMR instance over a cluster.
func New(cluster *mapreduce.Cluster, cfg Config) *TiMR {
	if cfg.CTIPeriod <= 0 {
		cfg.CTIPeriod = DefaultConfig().CTIPeriod
	}
	return &TiMR{Cluster: cluster, Cfg: cfg}
}

// Run executes an annotated temporal plan over the cluster: it fragments
// the plan, converts each fragment to an M-R stage (paper §III-A step 4)
// and runs the stages in order. sources maps scan names to FS datasets;
// output names the result dataset, which carries IntermediateSchema rows.
func (t *TiMR) Run(plan *temporal.Plan, sources map[string]string, output string) (*mapreduce.JobStat, error) {
	frags, err := MakeFragments(plan, sources, output)
	if err != nil {
		return nil, err
	}
	stages := make([]mapreduce.Stage, 0, len(frags))
	for i := range frags {
		st, err := t.Stage(&frags[i])
		if err != nil {
			return nil, err
		}
		stages = append(stages, st)
	}
	return t.Cluster.Run(stages...)
}

// ResultEvents reads a TiMR output dataset back as coalesced events.
func (t *TiMR) ResultEvents(name string) ([]temporal.Event, error) {
	ds, err := t.Cluster.FS.Read(name)
	if err != nil {
		return nil, err
	}
	return temporal.Coalesce(RowsToEvents(ds.Flatten())), nil
}

// Stage converts one fragment into a map-reduce stage whose reducer is
// the generated method P of the paper: it converts partition rows to
// events, feeds them in batches to an embedded engine instance running
// the fragment plan (the generated method P'), and emits result events
// back as rows directly from the engine's batched output (the paper's
// blocking-queue bridge of §III-C.2 collapses to a synchronous sink when
// reducer and engine share one thread).
func (t *TiMR) Stage(frag *Fragment) (mapreduce.Stage, error) {
	// A raw source may itself be the output of an earlier TiMR job, in
	// which case its rows carry interval lifetimes; detect that from the
	// stored schema so chained jobs compose (the BT pipeline runs one job
	// per phase).
	for i := range frag.Inputs {
		in := &frag.Inputs[i]
		if in.Intermediate {
			continue
		}
		if ds, err := t.Cluster.FS.Read(in.Dataset); err == nil && hasLifetimeColumns(ds.Schema) {
			in.Intermediate = true
		}
	}
	inputs := make([]string, len(frag.Inputs))
	for i, in := range frag.Inputs {
		inputs[i] = in.Dataset
	}
	outSchema := IntermediateSchema(frag.Root.Schema())

	st := mapreduce.Stage{
		Name:      frag.Name,
		Inputs:    inputs,
		Output:    frag.Output,
		OutSchema: outSchema,
	}
	// Every TiMR reducer merges its input runs by event LE; declaring the
	// run key lets the map phase annotate each shuffle run's sortedness
	// inline, so spilled runs can stream through the merge without a
	// re-read (and unsorted ones fall back to materialize+sort).
	st.RunKey = runKeyFn(frag)
	// The same key, declared positionally so the columnar map fast path
	// can read it straight off an int64 column without building rows.
	st.RunKeyCols = runKeyCols(frag)

	if frag.Part.Temporal {
		if err := t.temporalStage(&st, frag); err != nil {
			return st, err
		}
		return st, nil
	}

	if len(frag.Part.Cols) == 0 {
		// Non-partitionable fragment: single task (no key declared, so
		// every row goes to partition 0).
		st.NumPartitions = 1
	} else {
		// hash(key) mod #machines (§III-C.3): one engine instance serves
		// a whole hash bucket of logical groups.
		cols := make([][]int, len(frag.Inputs))
		for i, in := range frag.Inputs {
			cols[i] = partitionCols(in, frag.Inputs[i].Part.Cols)
		}
		// Declared positionally so columnar map input hashes whole
		// columns without materializing rows.
		st.PartitionCols = cols
	}

	st.Reduce = t.reducer(frag, nil)
	return st, nil
}

// runKeyFn builds the stage's RunKey: the event left endpoint — the
// lifetime LE column for intermediate inputs, the Time column for raw
// sources. It is exactly the key the reducer's k-way merge orders by.
func runKeyFn(frag *Fragment) func(mapreduce.Row, int) int64 {
	timeCols := make([]int, len(frag.Inputs))
	intermediate := make([]bool, len(frag.Inputs))
	for i, in := range frag.Inputs {
		if in.Intermediate {
			intermediate[i] = true
		} else {
			timeCols[i] = in.Schema.MustIndex(TimeColumn)
		}
	}
	return func(r mapreduce.Row, src int) int64 {
		if intermediate[src] {
			return r[0].AsInt()
		}
		return r[timeCols[src]].AsInt()
	}
}

// runKeyCols is runKeyFn expressed positionally: the int64 column each
// input's run key lives in (the LE lifetime column for intermediate
// inputs, the Time column for raw sources). Keeping the two in lockstep
// is what lets the columnar fast path skip row materialization while
// producing the same run annotations as runKeyFn.
func runKeyCols(frag *Fragment) []int {
	cols := make([]int, len(frag.Inputs))
	for i, in := range frag.Inputs {
		if in.Intermediate {
			cols[i] = 0 // __LE leads intermediate schemas
		} else {
			cols[i] = in.Schema.MustIndex(TimeColumn)
		}
	}
	return cols
}

// hasLifetimeColumns reports whether a stored dataset schema leads with
// the __LE/__RE interval columns of TiMR intermediate data.
func hasLifetimeColumns(s *temporal.Schema) bool {
	return s != nil && s.Len() >= 2 && s.Field(0).Name == ColLE && s.Field(1).Name == ColRE
}

// partitionCols resolves partition column positions, accounting for the
// two lifetime columns of intermediate datasets.
func partitionCols(in FragmentInput, cols []string) []int {
	idx := in.Schema.Indexes(cols...)
	if in.Intermediate {
		for i := range idx {
			idx[i] += 2
		}
	}
	return idx
}

// reducer builds the method P for a fragment. If spans is non-nil, output
// events are clipped to the owned interval (temporal partitioning). The
// returned reducer works out of core: each input arrives as a list of
// shuffle-run segments, resident or spilled, and P streams them through
// a k-way merge into the engine instead of materializing the partition
// — its working set is the merge frontier plus one feed batch.
func (t *TiMR) reducer(frag *Fragment, spans *SpanSpec) mapreduce.Reducer {
	// Capture per-input conversion metadata once.
	type inMeta struct {
		scan         string
		intermediate bool
		timeCol      int
	}
	metas := make([]inMeta, len(frag.Inputs))
	for i, in := range frag.Inputs {
		m := inMeta{scan: in.ScanName, intermediate: in.Intermediate}
		if !in.Intermediate {
			m.timeCol = in.Schema.MustIndex(TimeColumn)
		}
		metas[i] = m
	}
	root := frag.Root
	cfg := t.Cfg
	// One scope per fragment, shared by every partition's engine (and by
	// retried attempts): obs handles are atomics, so parallel reducers on
	// the worker pool aggregate into the same per-operator counters.
	scope := cfg.Obs.Child("frag." + frag.Name)
	mergeRuns := scope.Counter("merge_runs")
	mergeFallbacks := scope.Counter("merge_fallback_sorts")
	colFeeds := scope.Counter("columnar_feeds")

	return func(part int, in [][]mapreduce.Segment, emit func(mapreduce.Row)) error {
		// The paper's deployment bridges the DSMS's asynchronous push to
		// M-R's synchronous pull with a blocking queue (§III-C.2). Here
		// both sides live in one goroutine, so the engine's batched output
		// lands directly in the result sink — no channel, no per-event
		// handoff — and rows flow to emit after the final coalesce.
		sink := &reduceSink{clip: spans != nil}
		if spans != nil {
			sink.start, sink.end = spans.Owned(part)
		}
		eng, err := temporal.NewEngine(root,
			temporal.WithSink(sink),
			temporal.WithObs(scope),
			temporal.WithCTIPeriod(cfg.CTIPeriod))
		if err != nil {
			return err
		}
		// The engine's output lands in sink whichever feed path runs;
		// finish drains it and ships coalesced rows to emit.
		finish := func() error {
			eng.Flush()
			out := sink.out
			if cfg.Coalesce {
				out = temporal.Coalesce(out)
			}
			for _, r := range EventsToRows(out) {
				emit(r)
			}
			return nil
		}

		// Columnar fast path: a partition that is exactly one sorted
		// resident columnar run needs no merge (single-run order IS the
		// merged order) and no row materialization here — slice views of
		// the shuffle block feed the engine's columnar entry directly, and
		// a fused plan head defers the column→row transpose past its
		// stateless prefix. Falls through to the merge when the block's
		// lifetime/time columns are not pure int vectors.
		if cb, src := soleColumnarRun(in); cb != nil {
			m := metas[src]
			var view *temporal.ColBatch
			if m.intermediate {
				view = cb.IntervalEventView()
			} else {
				view = cb.PointEventView(m.timeCol)
			}
			if view != nil {
				colFeeds.Inc()
				mergeRuns.Add(1)
				n := view.Len()
				for lo := 0; lo < n; lo += reduceFeedBatch {
					hi := lo + reduceFeedBatch
					if hi > n {
						hi = n
					}
					eng.FeedColBatch(m.scan, view.Slice(lo, hi))
				}
				return finish()
			}
		}

		// One streaming cursor per shuffle run, in (source, run) order —
		// the same global run ordinals the materialized merge used, so the
		// pop order is identical. Rows convert to events lazily (P reads
		// rows "and converts each row into an event using the predefined
		// Time column"); resident runs are walked in place, sorted spilled
		// runs decode one row frame at a time.
		runs := make([]*eventRun, 0, 8)
		for src := range in {
			m := metas[src]
			toEvent := func(r mapreduce.Row) temporal.Event {
				if m.intermediate {
					return temporal.Event{LE: r[0].AsInt(), RE: r[1].AsInt(), Payload: r[2:]}
				}
				return temporal.PointEvent(r[m.timeCol].AsInt(), r)
			}
			for i := range in[src] {
				er, err := newEventRun(&in[src][i], len(runs), src, toEvent, func() { mergeFallbacks.Add(1) })
				if err != nil {
					return err
				}
				runs = append(runs, er)
			}
		}
		// The engine requires nondecreasing LE; M-R partitions are not
		// time-sorted globally, so P establishes time order first (the
		// strawman's "pre-sorting of data", §II-C — here it is part of the
		// framework, written once). The shuffle delivers each partition as
		// a concatenation of runs that are individually time-sorted
		// whenever their upstream partition was, so instead of a global
		// O(n log n) re-sort, P k-way merges the runs — reproducing the
		// stable LE-sort order exactly (see mergeEventRuns).
		mergeRuns.Add(int64(len(runs)))

		// Feed the merged order in same-source batches: one pipeline entry
		// call per run instead of per event.
		batch := make([]temporal.Event, 0, reduceFeedBatch)
		cur := ""
		flush := func() {
			if len(batch) > 0 {
				eng.FeedBatch(cur, &temporal.Batch{Events: batch})
				batch = batch[:0]
			}
		}
		if err := mergeEventRuns(runs, func(er *eventRun) error {
			if scan := metas[er.src].scan; scan != cur || len(batch) >= reduceFeedBatch {
				flush()
				cur = scan
			}
			batch = append(batch, er.cur)
			return nil
		}); err != nil {
			return err
		}
		flush()
		return finish()
	}
}

// soleColumnarRun detects the reducer's columnar fast-path shape: the
// whole partition is one sorted, resident, columnar shuffle segment
// (empty segments are ignored). It returns that segment's batch and the
// stage input it belongs to, or (nil, -1).
func soleColumnarRun(in [][]mapreduce.Segment) (*temporal.ColBatch, int) {
	var cb *temporal.ColBatch
	src := -1
	for s := range in {
		for i := range in[s] {
			seg := &in[s][i]
			if seg.Len() == 0 {
				continue
			}
			if cb != nil || !seg.Sorted() || seg.Spilled() || seg.ResidentColumnar() == nil {
				return nil, -1
			}
			cb, src = seg.ResidentColumnar(), s
		}
	}
	return cb, src
}

// reduceFeedBatch sizes the reducer's engine-feed batches: large enough
// to amortize per-batch dispatch to noise, small enough to stay
// cache-resident.
const reduceFeedBatch = 1024

// reduceSink collects a partition engine's output for the reducer,
// clipping events to the partition's owned span under temporal
// partitioning. It implements BatchSink, so the engine's batched tail
// delivers whole runs in one call.
type reduceSink struct {
	clip       bool
	start, end temporal.Time
	out        []temporal.Event
}

func (s *reduceSink) add(e temporal.Event) {
	if s.clip {
		e.LE, e.RE = maxT(e.LE, s.start), minT(e.RE, s.end)
		if e.LE >= e.RE {
			return
		}
	}
	s.out = append(s.out, e)
}

func (s *reduceSink) OnEvent(e temporal.Event) { s.add(e) }

func (s *reduceSink) OnBatch(b *temporal.Batch) {
	if !s.clip {
		s.out = append(s.out, b.Events...)
		return
	}
	for _, e := range b.Events {
		s.add(e)
	}
}

func (s *reduceSink) OnCTI(temporal.Time) {}
func (s *reduceSink) OnFlush()            {}

func maxT(a, b temporal.Time) temporal.Time {
	if a > b {
		return a
	}
	return b
}

func minT(a, b temporal.Time) temporal.Time {
	if a < b {
		return a
	}
	return b
}

// temporalStage wires a time-partitioned fragment (§III-B): rows are
// routed to overlapping spans, each span's engine produces output only
// for its owned interval.
func (t *TiMR) temporalStage(st *mapreduce.Stage, frag *Fragment) error {
	width := frag.Part.SpanWidth
	if width <= 0 {
		width = t.Cfg.SpanWidth
	}
	overlap := frag.Root.MaxWindow()
	// Determine the data's time range to size the span set.
	lo, hi := temporal.MaxTime, temporal.MinTime
	for _, in := range frag.Inputs {
		ds, err := t.Cluster.FS.Read(in.Dataset)
		if err != nil {
			return err
		}
		timeCol := 0
		if !in.Intermediate {
			timeCol = in.Schema.MustIndex(TimeColumn)
		}
		for p := 0; p < ds.NumPartitions(); p++ {
			rd := ds.Reader(p)
			for {
				r, ok, err := rd.Next()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				ts := r[timeCol].AsInt()
				if ts < lo {
					lo = ts
				}
				if ts > hi {
					hi = ts
				}
			}
		}
	}
	if lo > hi {
		lo, hi = 0, 0
	}
	if width <= 0 {
		// Auto-size: about two tasks per machine, but spans no narrower
		// than twice the fragment's window so the overlap duplication
		// stays below ~50% (the tradeoff of paper Figure 16).
		machines := temporal.Time(t.Cluster.Cfg.Machines)
		if machines < 1 {
			machines = 1
		}
		width = (hi - lo + 1) / (2 * machines)
		if min := 2 * overlap; width < min {
			width = min
		}
		if width <= 0 {
			width = 1
		}
	}
	spans := NewSpanSpec(lo, hi, width, overlap)
	st.NumPartitions = spans.N
	timeCols := make([]int, len(frag.Inputs))
	intermediate := make([]bool, len(frag.Inputs))
	for i, in := range frag.Inputs {
		if in.Intermediate {
			timeCols[i] = 0
			intermediate[i] = true
		} else {
			timeCols[i] = in.Schema.MustIndex(TimeColumn)
		}
	}
	st.MultiPartition = func(r mapreduce.Row, src, nparts int) []int {
		if intermediate[src] {
			// Interval events route by their full lifetime: every span
			// whose input region the lifetime reaches must see the event,
			// or chained temporal jobs drop contributions in later spans.
			return spans.SpansForInterval(r[0].AsInt(), r[1].AsInt())
		}
		return spans.SpansFor(r[timeCols[src]].AsInt())
	}
	st.Reduce = t.reducer(frag, spans)
	return nil
}

// String renders a fragment summary ("DAG of {fragment, key} pairs").
func (frag *Fragment) String() string {
	return fmt.Sprintf("%s key=%s inputs=%d -> %s", frag.Name, frag.Part, len(frag.Inputs), frag.Output)
}
