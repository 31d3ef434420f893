package temporal

import (
	"fmt"
	"sort"

	"timr/internal/obs"
)

// Engine hosts a compiled pipeline together with a result collector. It is
// the "embedded DSMS server instance" that TiMR creates inside reducers
// (paper §III-A step 4) and that the real-time example drives directly.
//
// An Engine is single-threaded by design, like one StreamInsight instance;
// parallelism comes from running many engines over partitions (TiMR) —
// exactly the paper's architecture.
type Engine struct {
	pipeline *Pipeline
	collect  *Collector
	sink     Sink
	// CTIPeriod controls automatic punctuation injection by Feed,
	// FeedBatch and FeedSorted: a CTI is broadcast whenever application
	// time advances past the next period boundary (the schedule is
	// anchored at the first event's time). Zero disables automatic CTIs
	// (state is bounded only by Flush).
	CTIPeriod Time
	lastCTI   Time
	fed       bool    // any input seen; Restore on a fed engine is an error
	feedBuf   []Event // reused run buffer for FeedSorted
	feedBatch Batch   // reused batch header for FeedBatch/FeedSorted
}

// Option configures an Engine at construction.
type Option func(*engineOptions)

type engineOptions struct {
	sink        Sink
	scope       *obs.Scope
	ctiPeriod   Time
	interpreted bool
}

// WithSink delivers results to a caller-supplied sink (e.g. a live
// dashboard) instead of an internal collector. Engines built with a
// custom sink return nil from Results/RawResults.
func WithSink(out Sink) Option { return func(o *engineOptions) { o.sink = out } }

// WithObs enables per-operator instrumentation reporting into scope (see
// CompileObserved). A nil scope disables it. Engines for different
// partitions of the same fragment may share one scope: metric handles are
// shared atomics, so counts aggregate.
func WithObs(scope *obs.Scope) Option { return func(o *engineOptions) { o.scope = scope } }

// WithCTIPeriod sets the automatic punctuation period (see
// Engine.CTIPeriod). Zero disables automatic CTIs. The default is Hour.
func WithCTIPeriod(p Time) Option { return func(o *engineOptions) { o.ctiPeriod = p } }

// WithInterpreted disables the stateless-operator fusion pass (see
// CompileInterpreted): every plan node runs as its own physical
// operator. Used by the fused-vs-interpreted differential gates; output
// and checkpoint bytes are identical either way.
func WithInterpreted() Option { return func(o *engineOptions) { o.interpreted = true } }

// NewEngine compiles the plan into an engine. With no options, results
// accumulate in an internal collector (read them back with Results);
// WithSink, WithObs and WithCTIPeriod configure the output sink,
// instrumentation and automatic punctuation.
func NewEngine(plan *Plan, opts ...Option) (*Engine, error) {
	o := engineOptions{ctiPeriod: Hour}
	for _, opt := range opts {
		opt(&o)
	}
	var collect *Collector
	sink := o.sink
	if sink == nil {
		collect = &Collector{}
		sink = collect
	}
	p, err := compile(plan, sink, o.scope, o.scope == nil && !o.interpreted)
	if err != nil {
		return nil, err
	}
	return &Engine{pipeline: p, collect: collect, sink: sink, CTIPeriod: o.ctiPeriod, lastCTI: MinTime}, nil
}

// Pipeline exposes the compiled pipeline.
func (e *Engine) Pipeline() *Pipeline { return e.pipeline }

// Feed pushes one event into the named source.
func (e *Engine) Feed(source string, ev Event) {
	e.fed = true
	e.pipeline.Input(source).OnEvent(ev)
	e.maybeCTI(ev.LE)
}

// FeedBatch pushes a run of events (nondecreasing LE) into the named
// source as one batch — the batched counterpart of a Feed loop, with one
// pipeline entry call per run instead of per event. The run is split
// only where the automatic CTI schedule fires, so downstream observes
// exactly the per-event call sequence. An optional trailing CTI on the
// batch punctuates this source after its events.
//
// The batch and its Events slice remain owned by the caller and may be
// reused after the call returns.
func (e *Engine) FeedBatch(source string, b *Batch) {
	e.fed = true
	in := e.pipeline.BatchInput(source)
	// Snapshot the header: b may alias e.feedBatch (FeedSorted does), and
	// mid-run punctuation below reuses that header for sub-batches.
	evs, cti, hasCTI := b.Events, b.CTI, b.HasCTI
	start := 0
	if e.CTIPeriod > 0 && len(evs) > 0 {
		if e.lastCTI == MinTime {
			e.anchorCTI(evs[0].LE)
		}
		// One compare per event against the precomputed next boundary.
		next := e.lastCTI + e.CTIPeriod
		for i := range evs {
			t := evs[i].LE
			if t < next {
				continue
			}
			// Deliver the run up to and including the triggering event,
			// then punctuate — the same order Feed+maybeCTI produces.
			e.feedBatch = Batch{Events: evs[start : i+1]}
			in.OnBatch(&e.feedBatch)
			start = i + 1
			e.pipeline.AdvanceAll(t)
			e.lastCTI += ((t - e.lastCTI) / e.CTIPeriod) * e.CTIPeriod
			next = e.lastCTI + e.CTIPeriod
		}
	}
	if start == 0 {
		// No mid-run punctuation: forward the caller's batch as-is.
		if len(evs) > 0 || hasCTI {
			in.OnBatch(b)
		}
	} else if start < len(evs) || hasCTI {
		e.feedBatch = Batch{Events: evs[start:], CTI: cti, HasCTI: hasCTI}
		in.OnBatch(&e.feedBatch)
	}
	if hasCTI && cti > e.lastCTI {
		e.lastCTI = cti
	}
}

// FeedColBatch pushes a columnar batch of events into the named source.
// When the source's head operator is a fused stateless run, the batch
// (or its Slice views, where the automatic CTI schedule splits it) is
// handed to the kernel's columnar entry directly — no row materialization
// happens until the run's downstream boundary. Otherwise the batch is
// materialized once into a fresh per-call slab and fed through
// FeedBatch; the slab is never reused, so an operator that defers the
// batch (reorder, fan-out buffering) can safely retain it across feeds.
func (e *Engine) FeedColBatch(source string, cb *ColBatch) {
	if cb.Len() == 0 {
		return
	}
	cs := e.pipeline.ColInput(source)
	if cs == nil {
		e.FeedBatch(source, &Batch{Events: cb.MaterializeEvents(nil)})
		return
	}
	if cb.LE == nil {
		panic("temporal: FeedColBatch on a lifetime-free batch")
	}
	e.fed = true
	le := cb.LE
	start := 0
	if e.CTIPeriod > 0 {
		if e.lastCTI == MinTime {
			e.anchorCTI(le[0])
		}
		// Split the batch where the CTI schedule fires, mirroring
		// FeedBatch: deliver through the triggering event, then punctuate.
		next := e.lastCTI + e.CTIPeriod
		for i, t := range le {
			if t < next {
				continue
			}
			cs.OnColBatch(cb.Slice(start, i+1))
			start = i + 1
			e.pipeline.AdvanceAll(t)
			e.lastCTI += ((t - e.lastCTI) / e.CTIPeriod) * e.CTIPeriod
			next = e.lastCTI + e.CTIPeriod
		}
	}
	if start == 0 {
		cs.OnColBatch(cb)
	} else if start < len(le) {
		cs.OnColBatch(cb.Slice(start, len(le)))
	}
}

// anchorCTI anchors the automatic punctuation schedule at the first
// event: lastCTI becomes the last period boundary strictly before t, so
// a first event landing exactly on a boundary punctuates there (the
// caller's d >= CTIPeriod check fires immediately), and a sparse wave
// starting at a boundary is not silently un-punctuated until Flush.
func (e *Engine) anchorCTI(t Time) {
	e.lastCTI = floorDiv(t-1, e.CTIPeriod) * e.CTIPeriod
}

// maybeCTI drives the automatic punctuation schedule: the first event
// anchors it (see anchorCTI), and whenever application time crosses one
// or more period boundaries a CTI is broadcast and the schedule advances
// by whole periods (not to t itself — otherwise sparse sources whose
// events land between boundaries would drift the schedule and
// under-punctuate).
func (e *Engine) maybeCTI(t Time) {
	if e.CTIPeriod <= 0 {
		return
	}
	if e.lastCTI == MinTime {
		e.anchorCTI(t)
	}
	if d := t - e.lastCTI; d >= e.CTIPeriod {
		e.pipeline.AdvanceAll(t)
		e.lastCTI += (d / e.CTIPeriod) * e.CTIPeriod
	}
}

// Advance broadcasts a CTI at time t to every source.
func (e *Engine) Advance(t Time) {
	e.fed = true
	e.pipeline.AdvanceAll(t)
	e.lastCTI = t
}

// Flush ends all inputs, draining buffered state.
func (e *Engine) Flush() {
	e.fed = true
	e.pipeline.FlushAll()
}

// Checkpoint serializes the engine's full operator state — every stateful
// operator in the compiled pipeline, in deterministic plan order, plus the
// CTI clock — into a self-contained byte snapshot. The encoding is
// deterministic: two checkpoints of the same logical state are
// byte-identical. Take checkpoints between input batches (operators are
// quiescent then); the snapshot restores into a fresh engine compiled from
// the same plan via RestoreEngine.
func (e *Engine) Checkpoint() []byte {
	var w SnapshotWriter
	w.Byte(ckEngine)
	w.Varint(e.lastCTI)
	w.Uvarint(uint64(len(e.pipeline.ckpts)))
	for _, ck := range e.pipeline.ckpts {
		ck.Snapshot(&w)
	}
	return w.Bytes()
}

// Restore loads a Checkpoint snapshot into this engine. The engine must be
// freshly built from the same plan and must not have processed any input;
// on error the engine must be discarded.
func (e *Engine) Restore(snap []byte) error {
	if e.fed {
		return fmt.Errorf("temporal: Restore on an engine that has processed input")
	}
	r := NewSnapshotReader(snap)
	if err := r.Expect(ckEngine, "engine"); err != nil {
		return err
	}
	lastCTI := r.Varint()
	n := r.Count("pipeline operators")
	if r.Err() != nil {
		return r.Err()
	}
	if n != len(e.pipeline.ckpts) {
		return r.Failf("pipeline has %d stateful operators, snapshot has %d", len(e.pipeline.ckpts), n)
	}
	for _, ck := range e.pipeline.ckpts {
		if err := ck.Restore(r); err != nil {
			return err
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	e.lastCTI = lastCTI
	return nil
}

// RestoreEngine compiles plan into a fresh engine and loads a Checkpoint
// snapshot taken from another engine compiled from the same plan.
func RestoreEngine(plan *Plan, snap []byte, opts ...Option) (*Engine, error) {
	eng, err := NewEngine(plan, opts...)
	if err != nil {
		return nil, err
	}
	if err := eng.Restore(snap); err != nil {
		return nil, err
	}
	return eng, nil
}

// Results returns the collected output, coalesced and sorted, when the
// engine was built with an internal collector.
func (e *Engine) Results() []Event {
	if e.collect == nil {
		return nil
	}
	return Coalesce(e.collect.Flatten())
}

// RawResults returns output events as emitted (fragmented at CTI
// boundaries), sorted.
func (e *Engine) RawResults() []Event {
	if e.collect == nil {
		return nil
	}
	out := append([]Event(nil), e.collect.Flatten()...)
	SortEvents(out)
	return out
}

// SourceEvent pairs an event with the source it belongs to, for
// multi-source runs.
type SourceEvent struct {
	Source string
	Event  Event
}

// feedRunCap bounds the reused run buffer FeedSorted batches through:
// large enough to amortize per-batch costs to noise, small enough to
// stay cache-resident and to bound the copy buffer.
const feedRunCap = 1024

// FeedSorted feeds a batch of source events in global LE order (sorting
// through an index vector if needed, which keeps equal-timestamp order
// stable without shuffling the events themselves), injecting CTIs every
// CTIPeriod of application time. Maximal same-source runs are pushed
// through FeedBatch, so a single-source feed crosses the pipeline in
// feedRunCap-sized batches.
func (e *Engine) FeedSorted(events []SourceEvent) {
	ordered := sort.SliceIsSorted(events, func(i, j int) bool {
		return events[i].Event.LE < events[j].Event.LE
	})
	if ordered {
		e.feedRuns(events, nil)
		return
	}
	order := make([]int32, len(events))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		return events[order[i]].Event.LE < events[order[j]].Event.LE
	})
	e.feedRuns(events, order)
}

// feedRuns feeds events in index order (identity when order is nil),
// batching maximal same-source runs (capped at feedRunCap) into FeedBatch.
func (e *Engine) feedRuns(events []SourceEvent, order []int32) {
	buf := e.feedBuf[:0]
	cur := ""
	flush := func() {
		if len(buf) > 0 {
			e.feedBatch = Batch{Events: buf}
			e.FeedBatch(cur, &e.feedBatch)
			buf = buf[:0]
		}
	}
	for i := range events {
		se := &events[i]
		if order != nil {
			se = &events[order[i]]
		}
		if se.Source != cur || len(buf) >= feedRunCap {
			flush()
			cur = se.Source
		}
		buf = append(buf, se.Event)
	}
	flush()
	e.feedBuf = buf[:0]
}

// RunPlan compiles and runs a plan over per-source event batches and
// returns coalesced, sorted results. It is the one-call path used
// throughout the tests and examples.
func RunPlan(plan *Plan, inputs map[string][]Event) ([]Event, error) {
	eng, err := NewEngine(plan)
	if err != nil {
		return nil, err
	}
	var all []SourceEvent
	for src, evs := range inputs {
		if _, ok := eng.pipeline.inputs[src]; !ok {
			continue // input not referenced by the plan
		}
		for _, ev := range evs {
			all = append(all, SourceEvent{Source: src, Event: ev})
		}
	}
	eng.FeedSorted(all)
	eng.Flush()
	return eng.Results(), nil
}

// RowsToPointEvents converts rows to point events using the values of the
// given time column (paper §III-A step 4: "sets event lifetime to
// [Time, Time+δ) and the payload to the remaining columns" — we keep the
// time column in the payload, matching the unified schema of Figure 9
// where queries filter on it too).
func RowsToPointEvents(rows []Row, timeCol int) []Event {
	out := make([]Event, len(rows))
	for i, r := range rows {
		out[i] = PointEvent(r[timeCol].AsInt(), r)
	}
	return out
}
