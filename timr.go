// Package timr is a reproduction of "Temporal Analytics on Big Data for
// Web Advertising" (Chandramouli, Goldstein, Duan; ICDE 2012): the TiMR
// framework — declarative temporal continuous queries compiled onto
// map-reduce with an embedded single-node temporal engine — together with
// the paper's end-to-end behavioral-targeting (BT) pipeline, the
// baselines it is evaluated against, and a synthetic ad-log workload
// generator standing in for the paper's proprietary logs.
//
// The package is a facade over the implementation packages:
//
//   - internal/temporal — the temporal DSMS engine and query builder;
//   - internal/mapreduce — the simulated DFS + map-reduce cluster;
//   - internal/core — TiMR itself: plan annotation, fragmentation,
//     temporal partitioning and the cost-based optimizer;
//   - internal/bt — the BT pipeline's temporal queries;
//   - internal/baseline — SCOPE strawman, custom reducers, F-Ex, KE-pop;
//   - internal/ml, internal/stats, internal/workload — supporting
//     substrates.
//
// # Quick start
//
// Build a temporal query with the fluent builder, annotate it with a
// partitioning key, and run it over a cluster:
//
//	schema := timr.NewSchema(
//		timr.Field{Name: "Time", Kind: timr.KindInt},
//		timr.Field{Name: "UserId", Kind: timr.KindInt},
//		timr.Field{Name: "AdId", Kind: timr.KindInt},
//	)
//	plan := timr.Scan("clicks", schema).
//		Exchange(timr.PartitionBy{Cols: []string{"AdId"}}).
//		GroupApply([]string{"AdId"}, func(g *timr.Plan) *timr.Plan {
//			return g.WithWindow(6 * timr.Hour).Count("ClickCount")
//		})
//
//	cluster := timr.NewCluster(timr.ClusterConfig{Machines: 150})
//	cluster.FS.Write("ds.clicks", timr.SinglePartition(schema, rows))
//	t := timr.New(cluster, timr.DefaultTiMRConfig())
//	if _, err := t.Run(plan, map[string]string{"clicks": "ds.clicks"}, "out"); err != nil {
//		log.Fatal(err)
//	}
//	events, _ := t.ResultEvents("out")
//
// The same plan runs unmodified over a live feed with an Engine — the
// paper's real-time-readiness property (see examples/realtime).
package timr

import (
	"timr/internal/baseline"
	"timr/internal/bt"
	"timr/internal/core"
	"timr/internal/mapreduce"
	"timr/internal/ml"
	"timr/internal/obs"
	"timr/internal/stats"
	"timr/internal/temporal"
	"timr/internal/tsql"
	"timr/internal/workload"
)

// ---- Observability ----

// Metric types (see internal/obs). A MetricScope attached to
// ClusterConfig.Obs or TiMRConfig.Obs collects per-stage and per-operator
// counters while a job runs; Snapshot/Table read them back.
type (
	// MetricScope is a named tree of counters, gauges and histograms.
	MetricScope = obs.Scope
	// MetricPoint is one entry of a MetricScope snapshot.
	MetricPoint = obs.Point
)

// NewMetricScope creates a metric scope root.
var NewMetricScope = obs.New

// ---- StreamSQL surface ----

// SQLCatalog maps stream names to schemas for CompileSQL.
type SQLCatalog = tsql.Catalog

// CompileSQL compiles a StreamSQL query (the paper's second user surface,
// §III-A) into the same logical plan the builder produces.
var CompileSQL = tsql.Compile

// ---- Temporal engine (StreamInsight stand-in) ----

// Core data-model types of the temporal engine.
type (
	// Time is application time in milliseconds.
	Time = temporal.Time
	// Value is a tagged-union column value.
	Value = temporal.Value
	// Kind enumerates value kinds.
	Kind = temporal.Kind
	// Field is a named, typed column.
	Field = temporal.Field
	// Schema describes a stream's payload columns.
	Schema = temporal.Schema
	// Row is one tuple of values.
	Row = temporal.Row
	// Event is a payload with validity lifetime [LE, RE).
	Event = temporal.Event
	// SourceEvent pairs an event with its source stream name.
	SourceEvent = temporal.SourceEvent
	// Sink is the push interface of physical operators and result consumers.
	Sink = temporal.Sink
	// Batch is a run of events plus an optional trailing CTI — the unit of
	// the batched dataflow contract.
	Batch = temporal.Batch
	// BatchSink is the batch-granularity push interface.
	BatchSink = temporal.BatchSink
	// EventAdapter presents a per-event Sink as a BatchSink.
	EventAdapter = temporal.EventAdapter
	// BatchAdapter presents a BatchSink as a per-event Sink.
	BatchAdapter = temporal.BatchAdapter
	// EngineOption configures NewEngine (WithSink, WithObs, WithCTIPeriod).
	EngineOption = temporal.Option
	// Collector is a Sink accumulating results.
	Collector = temporal.Collector
	// FuncSink adapts callbacks to Sink.
	FuncSink = temporal.FuncSink
	// Plan is a logical continuous-query plan node.
	Plan = temporal.Plan
	// Predicate filters rows declaratively.
	Predicate = temporal.Predicate
	// Projection defines one output column of a Project.
	Projection = temporal.Projection
	// JoinPred is a residual join condition.
	JoinPred = temporal.JoinPred
	// UDOSpec configures a windowed user-defined operator.
	UDOSpec = temporal.UDOSpec
	// PartitionBy annotates logical exchange operators.
	PartitionBy = temporal.PartitionBy
	// Engine hosts a compiled query (single node / real time).
	Engine = temporal.Engine
	// CompiledQuery is a compiled physical pipeline.
	CompiledQuery = temporal.Pipeline
)

// Value kinds.
const (
	KindNull   = temporal.KindNull
	KindInt    = temporal.KindInt
	KindFloat  = temporal.KindFloat
	KindString = temporal.KindString
	KindBool   = temporal.KindBool
)

// Time units.
const (
	Tick   = temporal.Tick
	Second = temporal.Second
	Minute = temporal.Minute
	Hour   = temporal.Hour
	Day    = temporal.Day
)

// Constructors and helpers re-exported from the engine.
var (
	Int               = temporal.Int
	Float             = temporal.Float
	String            = temporal.String
	Bool              = temporal.Bool
	NewSchema         = temporal.NewSchema
	Scan              = temporal.Scan
	PointEvent        = temporal.PointEvent
	SortEvents        = temporal.SortEvents
	EventsEqual       = temporal.EventsEqual
	Coalesce          = temporal.Coalesce
	NewEngine         = temporal.NewEngine
	RestoreEngine     = temporal.RestoreEngine
	WithSink          = temporal.WithSink
	WithObs           = temporal.WithObs
	WithCTIPeriod     = temporal.WithCTIPeriod
	AsBatchSink       = temporal.AsBatchSink
	RunPlan           = temporal.RunPlan
	RowsToPointEvents = temporal.RowsToPointEvents
	ColEqInt          = temporal.ColEqInt
	ColEqString       = temporal.ColEqString
	ColGtInt          = temporal.ColGtInt
	ColLtInt          = temporal.ColLtInt
	ColGeFloat        = temporal.ColGeFloat
	AbsGeFloat        = temporal.AbsGeFloat
	FnPred            = temporal.FnPred
	And               = temporal.And
	Or                = temporal.Or
	Not               = temporal.Not
	Keep              = temporal.Keep
	Rename            = temporal.Rename
	ConstInt          = temporal.ConstInt
	Compute           = temporal.Compute
)

// ---- Map-reduce substrate ----

// Cluster-side types.
type (
	// Cluster is the simulated map-reduce cluster.
	Cluster = mapreduce.Cluster
	// ClusterConfig sizes and seeds the cluster.
	ClusterConfig = mapreduce.Config
	// FS is the simulated distributed file system.
	FS = mapreduce.FS
	// DFSDataset is a partitioned dataset.
	DFSDataset = mapreduce.Dataset
	// Stage is one map-reduce stage.
	Stage = mapreduce.Stage
	// Reducer is a per-partition computation over shuffle-run segments.
	Reducer = mapreduce.Reducer
	// Segment is one shuffle run of a reducer's input, resident or
	// spilled.
	Segment = mapreduce.Segment
	// JobStat aggregates job accounting.
	JobStat = mapreduce.JobStat
	// StageStat aggregates stage accounting.
	StageStat = mapreduce.StageStat
)

// Cluster constructors.
var (
	NewCluster      = mapreduce.NewCluster
	NewFS           = mapreduce.NewFS
	SinglePartition = mapreduce.SinglePartition
	// Materialize decodes a reducer's segments into whole row slices.
	Materialize = mapreduce.Materialize
)

// ---- TiMR framework ----

// Framework types.
type (
	// TiMR binds a cluster to the framework (paper §III).
	TiMR = core.TiMR
	// TiMRConfig tunes the runtime.
	TiMRConfig = core.Config
	// Fragment is a maximal exchange-free subplan.
	Fragment = core.Fragment
	// SpanSpec is a temporal-partitioning span layout.
	SpanSpec = core.SpanSpec
	// Optimizer annotates plans cost-based (paper §VI).
	Optimizer = core.Optimizer
	// OptimizerStats feeds the optimizer's cost model.
	OptimizerStats = core.Stats
	// StreamingJob runs a fragmented plan as a live pipelined dataflow
	// (the paper's §VII "MapReduce Online" direction).
	StreamingJob = core.StreamingJob
	// CrashConfig enables deterministic partition crash injection in
	// streaming jobs; recovery restores checkpoints and replays logs.
	CrashConfig = core.CrashConfig
	// StreamOption configures NewStreamingJob (WithMachines,
	// WithStreamConfig, WithOnEvent, WithCrash, WithIntake, WithRebalance).
	StreamOption = core.StreamOption
	// Feeder is the per-source ingest handle returned by
	// StreamingJob.Source: Feed/FeedBatch/FeedColBatch plus the
	// non-blocking TryFeed admission path.
	Feeder = core.Feeder
	// RebalanceConfig tunes the elastic worker split/merge policy of a
	// streaming job.
	RebalanceConfig = core.RebalanceConfig
	// Migration records one live shard transfer between workers.
	Migration = core.Migration
)

// Framework constructors.
var (
	New               = core.New
	DefaultTiMRConfig = core.DefaultConfig
	MakeFragments     = core.MakeFragments
	NewSpanSpec       = core.NewSpanSpec
	NewOptimizer      = core.NewOptimizer
	DefaultStats      = core.DefaultStats
	EventsToRows      = core.EventsToRows
	RowsToEvents      = core.RowsToEvents
	NewStreamingJob   = core.NewStreamingJob
	// Streaming-job options.
	WithMachines     = core.WithMachines
	WithStreamConfig = core.WithConfig
	WithOnEvent      = core.WithOnEvent
	WithCrash        = core.WithCrash
	WithIntake       = core.WithIntake
	WithRebalance    = core.WithRebalance
)

// Streaming admission errors.
var (
	// ErrStreamFlushed is returned by feed paths after Flush.
	ErrStreamFlushed = core.ErrFlushed
	// ErrBacklogged is returned by Feeder.TryFeed when the source's
	// per-wave intake budget is exhausted (the event was not admitted).
	ErrBacklogged = core.ErrBacklogged
)

// ---- Behavioral targeting ----

// BT types.
type (
	// BTParams are the pipeline knobs (paper §IV).
	BTParams = bt.Params
	// BTPipeline chains the BT phases over TiMR.
	BTPipeline = bt.Pipeline
)

// BT constructors and plans.
var (
	DefaultBTParams   = bt.DefaultParams
	NewBTPipeline     = bt.NewPipeline
	RunBTSingleNode   = bt.RunSingleNode
	BotElimPlan       = bt.BotElimPlan
	LabelPlan         = bt.LabelPlan
	TrainDataPlan     = bt.TrainDataPlan
	FeatureSelectPlan = bt.FeatureSelectPlan
	ReducePlan        = bt.ReducePlan
	ModelPlan         = bt.ModelPlan
)

// ---- Workload, ML, stats, baselines ----

// Supporting types.
type (
	// WorkloadConfig parameterizes the synthetic ad-log generator.
	WorkloadConfig = workload.Config
	// Workload is a generated log with ground truth.
	Workload = workload.Dataset
	// AdClass is one ad class with planted correlations.
	AdClass = workload.AdClass
	// LRModel is a trained logistic-regression scorer.
	LRModel = ml.Model
	// LRExample is one training observation.
	LRExample = ml.Example
	// LiftPoint is one point of a lift/coverage curve.
	LiftPoint = ml.LiftPoint
	// ReductionScheme is a data-reduction strategy (KE-z, KE-pop, F-Ex).
	ReductionScheme = baseline.Scheme
)

// Workload stream ids (paper Figure 9).
const (
	StreamImpression = workload.StreamImpression
	StreamClick      = workload.StreamClick
	StreamKeyword    = workload.StreamKeyword
)

// SpillAll is the ClusterConfig.MemoryBudget sentinel that forces every
// shuffle bucket and stage output to spill (useful for out-of-core
// testing; 0 keeps everything resident).
const SpillAll = mapreduce.SpillAll

// Supporting constructors.
var (
	GenerateWorkload       = workload.Generate
	DefaultWorkloadConfig  = workload.DefaultConfig
	UnifiedSchema          = workload.UnifiedSchema
	TrainLR                = ml.TrainLR
	LiftCoverageCurve      = ml.LiftCoverageCurve
	TwoProportionZ         = stats.TwoProportionZ
	ZForConfidence         = stats.ZForConfidence
	NewKEZ                 = baseline.NewKEZ
	NewKEPop               = baseline.NewKEPop
	NewFEx                 = baseline.NewFEx
	IdentityScheme         = baseline.Identity
	ScopeRunningClickCount = baseline.ScopeRunningClickCount
	SliceRowSource         = baseline.SliceSource
)
