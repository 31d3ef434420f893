package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"timr/internal/dur"
	"timr/internal/obs"
	"timr/internal/temporal"
)

// StreamingJob executes a fragmented TiMR plan as a live dataflow — the
// paper's §VII direction: "MapReduce Online and SOPA allow efficient data
// pipelining in M-R across stages... We can transparently take advantage
// of the above proposals to directly support real-time CQ processing at
// scale." Instead of materializing intermediate datasets between stages,
// every fragment partition hosts a long-running embedded engine, and
// fragment outputs are routed (by the fragment key's hash, or by time
// span) straight into the downstream fragments' engines.
//
// Ordering across the boundary is restored with punctuation barriers: a
// downstream partition buffers arrivals from its many upstream partitions
// and releases them in LE order when the punctuation wave — propagated
// through the fragment DAG in topological order — guarantees that nothing
// earlier can still arrive. The same temporal algebra that makes TiMR's
// batch execution repeatable makes this streaming execution produce
// exactly the batch results (enforced by tests).
type StreamingJob struct {
	frags  []Fragment
	stages []*streamStage
	// bySource lists, for each raw source name, the stages consuming it
	// (with per-stage input index).
	bySource map[string][]stageInput
	feeders  map[string]*Feeder
	out      *streamBuffer
	results  []temporal.Event
	cfg      Config
	machines int
	rebal    RebalanceConfig
	autoRbl  bool // run the rebalance policy at every wave
	migs     []Migration
	waves    int // completed punctuation waves (crash-draw input)
	flushed  bool

	// Durable checkpointing (WithDurable): at the end of every wave the
	// job commits its full recovery state — each partition's checkpoint
	// and replay log, plus the delivered-output record — as one store
	// generation. durErr remembers the last commit failure for
	// inspection; a failed commit never fails the wave (availability over
	// durability — the previous generation stays the recovery line).
	durStore *dur.Store
	durErr   error
}

// ErrFlushed is returned by Feed, FeedBatch and Advance on a job whose
// Flush has already drained the dataflow: its engines are spent, so any
// further input would be silently lost.
var ErrFlushed = errors.New("timr: streaming job already flushed")

// CrashConfig enables deterministic partition crash injection in a
// streaming job — the streaming counterpart of Config.FailureRate for the
// batch cluster. Rate is the per-partition, per-wave probability that the
// partition is killed at a pseudo-random point of the following feed
// interval; the draw is a pure function of (fragment, partition, wave,
// Seed), mirroring Cluster.injectedFailure, so a chaotic run is exactly
// reproducible. A killed partition loses its engine and barrier buffer and
// recovers from its last checkpoint plus the replay log.
type CrashConfig struct {
	Rate float64
	Seed int64
}

type stageInput struct {
	stage *streamStage
	src   int
}

// StreamOption configures NewStreamingJob, mirroring NewEngine's
// functional options.
type StreamOption func(*streamOptions)

type streamOptions struct {
	machines int
	cfg      Config
	onEvent  func(temporal.Event)
	crash    *CrashConfig
	intake   int64
	rebal    *RebalanceConfig
	store    *dur.Store
}

// WithMachines sets the partition fan-out of hash-keyed fragments (the
// streaming counterpart of the batch cluster size). Defaults to 1.
func WithMachines(n int) StreamOption {
	return func(o *streamOptions) { o.machines = n }
}

// WithConfig replaces the whole runtime Config (defaults to
// DefaultConfig). Options applied after it — WithCrash — still win.
func WithConfig(cfg Config) StreamOption {
	return func(o *streamOptions) { o.cfg = cfg }
}

// WithOnEvent registers an incremental output callback: every result
// event is delivered as its punctuation wave releases it, in addition to
// accumulating for Results.
func WithOnEvent(f func(temporal.Event)) StreamOption {
	return func(o *streamOptions) { o.onEvent = f }
}

// WithCrash enables deterministic partition crash injection (overrides
// any Config.Crash set via WithConfig, regardless of option order).
func WithCrash(cc CrashConfig) StreamOption {
	return func(o *streamOptions) { o.crash = &cc }
}

// WithIntake bounds per-source admission to perWave events between
// punctuation waves: TryFeed refuses (ErrBacklogged) beyond the budget,
// while the committed Feed paths still admit but count the overflow as
// deferred load. Zero (the default) leaves intake unbounded.
func WithIntake(perWave int) StreamOption {
	return func(o *streamOptions) { o.intake = int64(perWave) }
}

// WithDurable attaches a durable checkpoint store: every punctuation
// wave commits the job's full recovery state as one store generation,
// and shard migrations route their checkpoint bytes through the store.
// A job killed between commits restarts via RestoreFromDir and replays
// forward bit-identically (see internal/dur).
func WithDurable(store *dur.Store) StreamOption {
	return func(o *streamOptions) { o.store = store }
}

// WithRebalance enables the elastic placement policy: at every
// punctuation wave each stage may split its hottest worker or merge its
// coldest one (see RebalanceConfig). Without this option workers stay
// static unless ForceSplit/ForceMerge is called.
func WithRebalance(rc RebalanceConfig) StreamOption {
	return func(o *streamOptions) { o.rebal = &rc }
}

// NewStreamingJob fragments an annotated plan and wires the live DAG.
// sources maps scan names to their schemas; output events are delivered
// to Results after Flush (coalesced), and incrementally to the
// WithOnEvent callback if set. Remaining knobs arrive as functional
// options: WithMachines, WithConfig, WithCrash, WithIntake,
// WithRebalance.
func NewStreamingJob(plan *temporal.Plan, sources map[string]*temporal.Schema, opts ...StreamOption) (*StreamingJob, error) {
	o := streamOptions{machines: 1, cfg: DefaultConfig()}
	for _, opt := range opts {
		opt(&o)
	}
	if o.crash != nil {
		o.cfg.Crash = *o.crash
	}
	cfg, onEvent := o.cfg, o.onEvent
	// MakeFragments wants dataset bindings; in streaming mode the
	// "dataset" names are just the source names.
	bind := make(map[string]string, len(sources))
	for name := range sources {
		bind[name] = name
	}
	frags, err := MakeFragments(plan, bind, "out")
	if err != nil {
		return nil, err
	}
	machines := o.machines
	if machines < 1 {
		machines = 1
	}
	j := &StreamingJob{
		frags:    frags,
		bySource: make(map[string][]stageInput),
		feeders:  make(map[string]*Feeder),
		cfg:      cfg,
		machines: machines,
		rebal:    defaultRebalance(o.rebal, machines),
		autoRbl:  o.rebal != nil,
		durStore: o.store,
	}
	outScope := cfg.Obs.Child("stream.out")
	j.out = &streamBuffer{
		depth:    outScope.Gauge("buffer_depth"),
		released: outScope.Counter("barrier_releases"),
		deliver: func(e temporal.Event) {
			j.results = append(j.results, e)
			if onEvent != nil {
				onEvent(e)
			}
		},
	}

	// Build stages bottom-up so downstream wiring exists... fragments are
	// already in execution (bottom-up) order; build all, then wire.
	byOutput := make(map[string]*streamStage)
	for i := range frags {
		st, err := j.newStage(&frags[i])
		if err != nil {
			return nil, err
		}
		j.stages = append(j.stages, st)
		byOutput[frags[i].Output] = st
	}
	for _, st := range j.stages {
		for srcIdx, in := range st.frag.Inputs {
			if up, ok := byOutput[in.Dataset]; ok {
				up.consumers = append(up.consumers, stageInput{stage: st, src: srcIdx})
				st.intermediate[srcIdx] = true
				continue
			}
			if _, ok := sources[in.ScanName]; !ok {
				return nil, fmt.Errorf("timr: streaming job has no source %q", in.ScanName)
			}
			j.bySource[in.ScanName] = append(j.bySource[in.ScanName], stageInput{stage: st, src: srcIdx})
		}
	}
	for name, ins := range j.bySource {
		j.feeders[name] = newFeeder(j, name, ins, o.intake)
	}
	return j, nil
}

// Advance propagates a punctuation wave through the DAG: stage by stage
// in topological order, each stage first releases everything the wave
// guarantees complete, then punctuates its engines, whose flushed output
// cascades into the next stage before that stage's own barrier runs.
// After the wave, every partition checkpoints its engine and resets its
// replay log — the recovery line a crashed partition rolls back to.
func (j *StreamingJob) Advance(t temporal.Time) error {
	if j.flushed {
		return ErrFlushed
	}
	for _, st := range j.stages {
		st.advance(t)
	}
	j.out.advance(t)
	j.waves++
	if j.autoRbl {
		for _, st := range j.stages {
			st.rebalance()
		}
	}
	for _, f := range j.feeders {
		f.resetWave()
	}
	if j.durStore != nil {
		j.commitDurable(t)
	}
	return nil
}

// Flush ends all inputs and drains the DAG. Flushing twice is a no-op.
func (j *StreamingJob) Flush() {
	if j.flushed {
		return
	}
	for _, st := range j.stages {
		st.flush()
	}
	j.out.flush()
	j.flushed = true
}

// Results returns the coalesced output events. Calling it before Flush is
// an error: the dataflow still holds buffered state, so any result would
// be silently partial.
func (j *StreamingJob) Results() ([]temporal.Event, error) {
	if !j.flushed {
		return nil, errors.New("timr: Results before Flush: the dataflow is still live; Flush first")
	}
	return temporal.Coalesce(append([]temporal.Event(nil), j.results...)), nil
}

// ---- stage ----

type streamStage struct {
	frag         *Fragment
	consumers    []stageInput // downstream stages reading this stage's output
	intermediate []bool       // per input: fed by an upstream stage?
	job          *StreamingJob

	// Partition engines. Column-keyed fragments use a fixed modulo table;
	// time-keyed fragments grow one partition per span lazily.
	parts   map[int]*streamPartition
	nparts  int // 0 for temporal fragments (unbounded spans)
	spans   *SpanSpec
	keyCols [][]int // per input, payload positions of the key columns
	// minSpan tracks the earliest span partition in existence: it owns
	// everything before its start (mirroring SpanSpec.Owned for span 0 in
	// batch mode), wherever the data's time origin lies.
	minSpan int
	hasSpan bool

	// Elastic placement: partitions (shards) are assigned to workers, and
	// the rebalance policy moves shards between workers by checkpoint
	// transfer + replay (see migrate.go). The shard space itself — hash
	// modulo or span id — never changes, so routing is placement-blind.
	workers    []*streamWorker
	assign     map[int]int // shard (partition id) → worker id
	nextWorker int
	lastLoad   map[int]int // per shard: events admitted in the last wave

	// Routing scratch, reused across runs (barrier buffers copy event
	// structs on push, so recycling these is safe).
	one      [1]temporal.Event
	routeBuf []temporal.Event
	hashBuf  []uint64

	// Observability (nil-safe handles; see Config.Obs).
	scope      *obs.Scope   // per-operator engine metrics for this stage
	depth      *obs.Gauge   // barrier buffer depth high-watermark
	released   *obs.Counter // events released through the barrier
	clipped    *obs.Counter // output events dropped entirely at span edges
	trimmed    *obs.Counter // output events shortened to their owned span
	truncated  *obs.Counter // events whose span fan-out hit maxSpanFanout
	crashes    *obs.Counter // injected partition crashes
	recoveries *obs.Counter // partitions rebuilt from checkpoint + replay
	ckptBytes  *obs.Counter // checkpoint bytes written at waves
	replayed   *obs.Counter // events replayed from the log after a crash

	migrations *obs.Counter // shards moved between workers
	migBytes   *obs.Counter // checkpoint bytes transferred by migrations
	workersG   *obs.Gauge   // current worker count
}

// maxSpanFanout bounds how many lazy span partitions one event may be
// replicated into (overlap regions of adjacent spans plus the reach of
// its own lifetime). 4096 spans at the default 4h width covers a lifetime
// of nearly two years — beyond any sane window — while keeping a single
// corrupt timestamp from materializing millions of engines.
const maxSpanFanout = 4096

type streamPartition struct {
	id  int
	eng *temporal.Engine
	buf *streamBuffer // order-restoring barrier in front of the engine

	// Recovery state. ckpt is the engine snapshot taken at the last wave
	// (nil before the first); log replays every event admitted since —
	// bounded, because it resets at each wave. Between waves the engine
	// never consumes input (the barrier only releases during advance), so
	// ckpt+log reconstruct the partition exactly at any moment.
	ckpt    []byte
	log     []temporal.Event
	pushes  int // events admitted since the last wave
	crashAt int // crash when pushes reaches this; -1 = disarmed
}

func (j *StreamingJob) newStage(frag *Fragment) (*streamStage, error) {
	sc := j.cfg.Obs.Child("stream." + frag.Name)
	st := &streamStage{
		frag:         frag,
		job:          j,
		parts:        make(map[int]*streamPartition),
		intermediate: make([]bool, len(frag.Inputs)),
		keyCols:      make([][]int, len(frag.Inputs)),
		scope:        sc,
		depth:        sc.Gauge("buffer_depth"),
		released:     sc.Counter("barrier_releases"),
		clipped:      sc.Counter("events_clipped"),
		trimmed:      sc.Counter("events_trimmed"),
		truncated:    sc.Counter("route_truncated"),
		crashes:      sc.Counter("crashes"),
		recoveries:   sc.Counter("recoveries"),
		ckptBytes:    sc.Counter("checkpoint_bytes"),
		replayed:     sc.Counter("replayed_events"),
		migrations:   sc.Counter("migrations"),
		migBytes:     sc.Counter("migrated_bytes"),
		workersG:     sc.Gauge("workers"),
		assign:       make(map[int]int),
		lastLoad:     make(map[int]int),
	}
	// Validate the fragment root up front: partitions compile engines
	// lazily (possibly mid-feed, on the first event into a new span), and
	// a compile error must surface here as an error, not there as a panic.
	if _, err := temporal.Compile(frag.Root, discardSink{}); err != nil {
		return nil, fmt.Errorf("timr: fragment %s: %w", frag.Name, err)
	}
	switch {
	case frag.Part.Temporal:
		width := frag.Part.SpanWidth
		if width <= 0 {
			width = 4 * temporal.Hour
		}
		st.spans = &SpanSpec{Origin: 0, Width: width, Overlap: frag.Root.MaxWindow(), N: 1 << 30}
	case len(frag.Part.Cols) == 0:
		st.nparts = 1
	default:
		st.nparts = j.machines
		for i, in := range frag.Inputs {
			st.keyCols[i] = in.Schema.Indexes(in.Part.Cols...)
		}
	}
	return st, nil
}

func (st *streamStage) newEngine(id int) *temporal.Engine {
	eng, err := temporal.NewEngine(st.frag.Root,
		temporal.WithSink(&stageOutput{stage: st, span: id}),
		temporal.WithObs(st.scope),
		temporal.WithCTIPeriod(0)) // punctuation comes from the wave, not per-feed
	if err != nil {
		panic(err) // unreachable: fragment roots are compile-validated in newStage
	}
	return eng
}

func (st *streamStage) partition(id int) *streamPartition {
	if p, ok := st.parts[id]; ok {
		return p
	}
	p := &streamPartition{id: id, eng: st.newEngine(id), crashAt: -1}
	p.buf = &streamBuffer{
		depth:    st.depth,
		released: st.released,
		deliver: func(e temporal.Event) {
			src := int(e.Payload[len(e.Payload)-1].AsInt()) // routing tag
			e.Payload = e.Payload[:len(e.Payload)-1]
			// Through p, not a captured engine: recovery swaps p.eng.
			p.eng.Feed(st.frag.Inputs[src].ScanName, e)
		},
	}
	st.parts[id] = p
	st.place(id)
	st.arm(p)
	if st.spans != nil && (!st.hasSpan || id < st.minSpan) {
		// New earliest span: it inherits ownership of everything before
		// it. Safe to move while the job runs: a span earlier than all
		// existing ones can only be created by an event below every
		// existing span's start, and the punctuation waves that release
		// output never run past the earliest pending input (§VII barrier
		// contract), so no output in the re-assigned region has been
		// emitted yet.
		st.minSpan = id
		st.hasSpan = true
	}
	return p
}

// route delivers one event for input src to the partition(s) that own it.
func (st *streamStage) route(src int, ev temporal.Event) {
	st.one[0] = ev
	st.routeBatch(src, st.one[:])
}

// routeBatch delivers a run of events for input src. Routing tags (the
// input index appended to each payload, so the barrier can feed the right
// engine source after reordering) are carved from one slab per run, and
// single-partition stages admit the whole run with one buffer append.
func (st *streamStage) routeBatch(src int, events []temporal.Event) {
	if len(events) == 0 {
		return
	}
	// Tag payloads in one slab: [payload..., Int(src)] per event. The
	// slab's lifetime matches the barrier buffer entries that reference it.
	total := 0
	for i := range events {
		total += len(events[i].Payload) + 1
	}
	slab := make(temporal.Row, total)
	tag := temporal.Int(int64(src))
	tagged := append(st.routeBuf[:0], events...)
	for i := range tagged {
		n := len(tagged[i].Payload) + 1
		row := slab[:n:n]
		slab = slab[n:]
		copy(row, tagged[i].Payload)
		row[n-1] = tag
		tagged[i].Payload = row
	}
	st.dispatch(src, tagged, nil)
	st.routeBuf = tagged[:0]
}

// routeColBatch delivers a columnar run for input src. The tagged rows
// routeBatch builds from event payloads are instead materialized straight
// from the columns — MaterializeRowsPad leaves the tag cell in place, so
// the transpose and the tag copy collapse into one pass — and hash
// partitioning runs column-at-a-time over the batch (HashRows matches
// HashRow cell for cell, so partition assignment is identical).
func (st *streamStage) routeColBatch(src int, cb *temporal.ColBatch) {
	if !cb.HasLifetimes() {
		panic("timr: streaming FeedColBatch on a lifetime-free batch")
	}
	n := cb.Len()
	rows := cb.MaterializeRowsPad(1)
	tag := temporal.Int(int64(src))
	tagged := st.routeBuf[:0]
	le, re := cb.LE, cb.RE
	for i := 0; i < n; i++ {
		row := rows[i]
		row[len(row)-1] = tag
		tagged = append(tagged, temporal.Event{LE: le[i], RE: re[i], Payload: row})
	}
	var hashes []uint64
	if st.spans == nil && st.nparts > 1 {
		st.hashBuf = cb.HashRows(st.keyCols[src], st.hashBuf)
		hashes = st.hashBuf
	}
	st.dispatch(src, tagged, hashes)
	st.routeBuf = tagged[:0]
}

// dispatch admits a tagged run to the owning partition(s). hashes, when
// non-nil, holds precomputed partition hashes for hash-keyed stages (the
// columnar path computes them vectorized); otherwise they are computed
// row-wise here.
func (st *streamStage) dispatch(src int, tagged []temporal.Event, hashes []uint64) {
	switch {
	case st.spans != nil:
		for i := range tagged {
			ev := &tagged[i]
			// Route by the full lifetime [LE, RE), not LE alone: a window
			// the event opens contributes to snapshots up to RE+overlap, so
			// every span up to there must see it (mirrors SpansForInterval
			// in batch).
			re := ev.RE
			if re < ev.LE+1 {
				re = ev.LE + 1
			}
			first := int(floorDivT(ev.LE, st.spans.Width))
			last := int(floorDivT(re-1+st.spans.Overlap, st.spans.Width))
			// Spans are lazy (N is effectively unbounded), so a pathological
			// lifetime could fan one event out to millions of partitions;
			// cap the fan-out and count what was cut so it is observable.
			if last-first+1 > maxSpanFanout {
				last = first + maxSpanFanout - 1
				st.truncated.Inc()
			}
			for p := first; p <= last; p++ {
				st.admit(st.partition(p), *ev)
			}
		}
	case st.nparts == 1:
		st.admitAll(st.partition(0), tagged)
	default:
		for i := range tagged {
			var h uint64
			if hashes != nil {
				h = hashes[i]
			} else {
				h = temporal.HashRow(tagged[i].Payload, st.keyCols[src])
			}
			st.admit(st.partition(int(h%uint64(st.nparts))), tagged[i])
		}
	}
}

// ---- crash injection and recovery ----

// admit pushes one event into a partition's barrier and replay log,
// firing an armed crash first when its push count comes due — so the
// partition dies mid-feed and the event lands on the recovered one.
func (st *streamStage) admit(p *streamPartition, e temporal.Event) {
	if p.crashAt >= 0 && p.pushes >= p.crashAt {
		st.crash(p)
	}
	p.buf.push(e)
	p.log = append(p.log, e)
	p.pushes++
}

// admitAll admits a whole run, splitting it when an armed crash lands
// inside: the head is admitted, the partition dies and recovers, and the
// tail is admitted to the rebuilt partition.
func (st *streamStage) admitAll(p *streamPartition, evs []temporal.Event) {
	if p.crashAt >= 0 && p.pushes+len(evs) > p.crashAt {
		k := p.crashAt - p.pushes
		if k < 0 {
			k = 0
		}
		p.buf.pushAll(evs[:k])
		p.log = append(p.log, evs[:k]...)
		p.pushes += k
		st.crash(p)
		evs = evs[k:]
	}
	p.buf.pushAll(evs)
	p.log = append(p.log, evs...)
	p.pushes += len(evs)
}

// crash kills a partition and immediately recovers it: the engine and
// barrier buffer are discarded, a fresh engine is restored from the last
// wave's checkpoint, and the replay log repopulates the barrier. Because
// engines consume input only during waves (the barrier releases nothing
// between them), the checkpoint plus the log reconstruct the partition
// exactly, at whatever moment the crash fires.
func (st *streamStage) crash(p *streamPartition) {
	st.crashes.Inc()
	p.crashAt = -1 // disarmed until the next wave re-arms
	p.eng = st.newEngine(p.id)
	if p.ckpt != nil {
		if err := p.eng.Restore(p.ckpt); err != nil {
			// Unreachable short of memory corruption: the checkpoint came
			// from an engine compiled from this same fragment root.
			panic(fmt.Sprintf("timr: partition recovery failed: %v", err))
		}
	}
	p.buf.pending = append(p.buf.pending[:0], p.log...)
	st.replayed.Add(int64(len(p.log)))
	st.recoveries.Inc()
}

// arm draws the partition's fate for the coming feed interval. The draw
// is a pure function of (fragment, partition, wave, seed) — mirroring
// Cluster.injectedFailure — so chaotic runs are exactly reproducible.
func (st *streamStage) arm(p *streamPartition) {
	cc := st.job.cfg.Crash
	if cc.Rate <= 0 {
		p.crashAt = -1
		return
	}
	h := temporal.HashSeed
	h = temporal.String(st.frag.Name).Hash(h)
	h = temporal.Int(int64(p.id)).Hash(h)
	h = temporal.Int(int64(st.job.waves)).Hash(h)
	h = temporal.Int(cc.Seed).Hash(h)
	r := rand.New(rand.NewSource(int64(h)))
	if r.Float64() < cc.Rate {
		p.crashAt = r.Intn(64) // die this many admissions into the interval
	} else {
		p.crashAt = -1
	}
}

// advance runs this stage's barrier at time t: release buffered events
// below t into the engines, then punctuate the engines (flushing their
// output into downstream buffers before those stages' barriers run).
// Afterwards each partition checkpoints its engine, resets its replay log
// to the events still pending, and draws its fate for the next interval.
func (st *streamStage) advance(t temporal.Time) {
	// Sorted order: per-partition work is independent, but the rebalance
	// policy reads the per-shard loads this loop records, so the walk must
	// not depend on map iteration order.
	for _, id := range st.sortedParts() {
		p := st.parts[id]
		if p.crashAt >= 0 {
			// Armed crash no feed reached: fire it at the wave boundary so
			// quiet partitions crash too.
			st.crash(p)
		}
		p.buf.advance(t)
		p.eng.Advance(t)
		p.ckpt = p.eng.Checkpoint()
		st.ckptBytes.Add(int64(len(p.ckpt)))
		p.log = append(p.log[:0], p.buf.pending...)
		st.lastLoad[p.id] = p.pushes
		p.pushes = 0
		st.arm(p)
	}
}

func (st *streamStage) sortedParts() []int {
	ids := make([]int, 0, len(st.parts))
	for id := range st.parts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

func (st *streamStage) flush() {
	for _, p := range st.parts {
		if p.crashAt >= 0 {
			st.crash(p) // last chance for an armed crash to matter
		}
		p.buf.flush()
		p.eng.Flush()
	}
}

// discardSink swallows output; newStage compiles a throwaway pipeline
// into it to validate fragment roots up front.
type discardSink struct{}

func (discardSink) OnEvent(temporal.Event) {}
func (discardSink) OnCTI(temporal.Time)    {}
func (discardSink) OnFlush()               {}

// stageOutput forwards a partition engine's output downstream, clipping
// temporal partitions to their owned span.
type stageOutput struct {
	stage *streamStage
	span  int
}

func (o *stageOutput) OnEvent(e temporal.Event) {
	st := o.stage
	if st.spans != nil {
		start := temporal.Time(o.span) * st.spans.Width
		end := start + st.spans.Width
		if o.span == st.minSpan {
			// The earliest *existing* span owns everything before it
			// (shifted lifetimes can reach below the data's origin) —
			// matching SpanSpec.Owned, where batch span 0 takes MinTime.
			// Keying on the actual earliest span rather than id <= 0
			// matters when the data starts at a large positive time: the
			// earliest lazy span id is then far above zero, and gating on
			// the id would silently discard output below its span start.
			start = temporal.MinTime
		}
		le, re := maxT(e.LE, start), minT(e.RE, end)
		if le >= re {
			st.clipped.Inc()
			return
		}
		if le != e.LE || re != e.RE {
			st.trimmed.Inc()
		}
		e.LE, e.RE = le, re
	}
	if st.frag.Final {
		st.job.out.push(e)
		return
	}
	for _, c := range st.consumers {
		c.stage.route(c.src, e)
	}
}

func (o *stageOutput) OnCTI(temporal.Time) {}
func (o *stageOutput) OnFlush()            {}

func floorDivT(a, b temporal.Time) temporal.Time {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// ---- order-restoring barrier ----

// streamBuffer holds events arriving from many ordered producers and
// releases them in LE order once a punctuation guarantees completeness.
type streamBuffer struct {
	pending  []temporal.Event
	deliver  func(temporal.Event)
	depth    *obs.Gauge   // high-watermark of pending (nil-safe)
	released *obs.Counter // events delivered through the barrier
}

func (b *streamBuffer) push(e temporal.Event) {
	b.pending = append(b.pending, e)
	b.depth.SetMax(int64(len(b.pending)))
}

// pushAll admits a whole run with one append and one gauge update.
func (b *streamBuffer) pushAll(evs []temporal.Event) {
	b.pending = append(b.pending, evs...)
	b.depth.SetMax(int64(len(b.pending)))
}

// advance releases events with LE < t in sorted order (events at or
// beyond t may still gain earlier-arriving siblings from other upstream
// partitions, so they stay buffered).
func (b *streamBuffer) advance(t temporal.Time) {
	if len(b.pending) == 0 {
		return
	}
	// Full (LE, RE, payload) ordering keeps release order deterministic
	// regardless of the arrival interleaving across upstream partitions.
	temporal.SortEvents(b.pending)
	n := sort.Search(len(b.pending), func(i int) bool { return b.pending[i].LE >= t })
	b.released.Add(int64(n))
	for _, e := range b.pending[:n] {
		b.deliver(e)
	}
	b.pending = append(b.pending[:0], b.pending[n:]...)
}

func (b *streamBuffer) flush() {
	b.advance(temporal.MaxTime)
}
