// Package serve is the elastic serving tier behind `timr serve`: a
// long-running scoring service that joins arriving ad impressions
// against the trained BT models through the streaming execution of
// ScorePlan (the paper's M3 loop — "we can generate a prediction
// whenever a new UBP is fed on its left input", §IV-B.4).
//
// Prepare trains the models offline: it generates a synthetic log,
// runs the full BT pipeline over the training half, and lodges the
// resulting per-ad models in the right synopsis of the serving join.
// Run then drives an open-loop, Zipf-skewed load (workload.LoadGen)
// into the left input, measuring per-impression scoring latency —
// arrival to incremental delivery — on an obs histogram, and reporting
// p50/p99 together with sustained events/s per partition. The serving
// job is an ordinary StreamingJob, so admission control (WithIntake),
// crash chaos (WithCrash) and elastic placement (WithRebalance) all
// compose with serving unchanged.
package serve

import (
	"fmt"
	"time"

	"timr/internal/bt"
	"timr/internal/core"
	"timr/internal/dur"
	"timr/internal/obs"
	"timr/internal/temporal"
	"timr/internal/workload"
)

// Config parameterizes a serving run. Zero fields take defaults.
type Config struct {
	// Workload generates the synthetic log the models are trained on;
	// its ground truth also drives the load generator.
	Workload workload.Config
	// Params tunes the BT pipeline. TrainPeriod defaults to half the
	// generated horizon, so the models trained on the first half are
	// valid over the serving window (the second half).
	Params *bt.Params

	// Load shapes the serving arrivals (user skew, search fraction).
	// Start defaults to the training period — the first instant the
	// models are valid.
	Load workload.LoadConfig
	// Requests is the total number of arrivals to generate (default
	// 4000). The schedule must fit the model validity window
	// [TrainPeriod, 2·TrainPeriod); Prepare rejects overruns.
	Requests int

	// Machines is the partition fan-out of the serving job (default 4).
	Machines int
	// WaveEvery is the event time between punctuation waves (default:
	// 1/64 of the request schedule's span, so a run sees ~64 waves).
	// Shorter waves deliver scores — and run the rebalance policy —
	// more often.
	WaveEvery temporal.Time

	// Rate, when positive, paces arrivals at this many per wall-clock
	// second through a bounded queue (open loop: the schedule never
	// slows down because the server lags, so queueing delay lands in
	// the measured latency). Zero feeds as fast as the job admits.
	Rate float64
	// Queue is the bounded intake queue depth in paced mode (default
	// 256). A full queue blocks the generator goroutine — the blocking
	// face of backpressure, complementing the non-blocking TryFeed.
	Queue int

	// Rebalance, when set, enables elastic placement (see
	// core.WithRebalance).
	Rebalance *core.RebalanceConfig
	// Intake, when positive, bounds per-source admission per wave (see
	// core.WithIntake).
	Intake int

	// Obs receives serving metrics (latency histogram, streaming stage
	// counters). Defaults to a fresh "serve" scope.
	Obs *obs.Scope

	// DurDir, when set, makes the serving job durable: every wave commits
	// a checkpoint generation to this directory (see internal/dur), and a
	// restarted process resumes from the newest intact generation — Run
	// detects recovered state and replays the deterministic schedule from
	// the recovered wave onward, delivering bit-identical output.
	DurDir string
	// DurFS overrides the filesystem the durable store writes through
	// (default the real OS; tests substitute dur.NewFaultFS).
	DurFS dur.FS
}

func (c Config) withDefaults() Config {
	if c.Requests <= 0 {
		c.Requests = 4000
	}
	if c.Machines <= 0 {
		c.Machines = 4
	}
	if c.Queue <= 0 {
		c.Queue = 256
	}
	if c.Obs == nil {
		c.Obs = obs.New("serve")
	}
	return c
}

// Report summarizes one serving run.
type Report struct {
	Requests    int
	Searches    int // profile updates (no score request)
	Impressions int // score requests issued
	Scored      int // impressions whose score was delivered
	RowsFed     int // feature rows fed to the join

	Duration     time.Duration
	P50, P99     time.Duration
	MaxLatency   time.Duration
	EventsPerSec float64 // impressions scored per wall-clock second
	Partitions   int     // shards of the scoring stage
	PerPartition float64 // EventsPerSec / Partitions

	Workers    map[string]int // final worker count per stage
	Migrations int            // shard transfers performed by the policy
	Deferred   int64          // events admitted over the intake budget

	// Planted-ground-truth sanity: a model that learned anything scores
	// clicked impressions above unclicked ones on average.
	MeanScoreClicked   float64
	MeanScoreUnclicked float64

	// Resumed reports that this run recovered a durable generation and
	// replayed the schedule from the recovered wave instead of starting
	// clean. Requests then counts only the re-fed tail of the schedule.
	Resumed bool
}

// Server is a prepared serving tier: trained models plus the dataset
// ground truth, ready to Run any number of times.
type Server struct {
	cfg    Config
	params bt.Params
	data   *workload.Dataset
	models []temporal.Event
}

// Prepare generates the log, trains the models on its first half, and
// validates that the configured load schedule fits the models' validity.
func Prepare(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	d := workload.Generate(cfg.Workload)

	p := bt.DefaultParams()
	if cfg.Params != nil {
		p = *cfg.Params
	} else {
		p.TrainPeriod = d.Horizon / 2
	}
	if cfg.Load.Start <= 0 {
		cfg.Load.Start = p.TrainPeriod
	}
	tick := cfg.Load.TickEvery
	if tick <= 0 {
		tick = 1
	}
	if cfg.WaveEvery <= 0 {
		cfg.WaveEvery = temporal.Time(cfg.Requests) * tick / 64
		if cfg.WaveEvery <= 0 {
			cfg.WaveEvery = 1
		}
	}
	end := cfg.Load.Start + temporal.Time(cfg.Requests)*tick
	if valid := 2 * p.TrainPeriod; end > valid {
		return nil, fmt.Errorf("serve: schedule ends at %d, past model validity %d — fewer requests or a smaller TickEvery", end, valid)
	}

	train, _ := d.SplitHalves()
	phases, err := bt.RunSingleNode(p, temporal.RowsToPointEvents(train, 0))
	if err != nil {
		return nil, fmt.Errorf("serve: training pipeline: %w", err)
	}
	models := phases[bt.DSModels]
	if len(models) == 0 {
		return nil, fmt.Errorf("serve: training produced no models")
	}
	return &Server{cfg: cfg, params: p, data: d, models: models}, nil
}

// Dataset exposes the generated log (diagnostics, tests).
func (s *Server) Dataset() *workload.Dataset { return s.data }

// Models exposes the trained model events (diagnostics, tests).
func (s *Server) Models() []temporal.Event {
	return append([]temporal.Event(nil), s.models...)
}

// timedReq is one scheduled arrival in the paced intake queue.
type timedReq struct {
	req   workload.Request
	sched time.Time
}

// Run drives one serving session and returns its report plus the
// coalesced score events (for differential tests: the delivered scores
// are deterministic in the dataset and load config, whatever the
// pacing, placement, or chaos). With DurDir set, Run is also the
// restart path: if the directory holds a committed generation from an
// earlier (killed) process, the job resumes from it.
func (s *Server) Run() (*Report, []temporal.Event, error) {
	return s.run(-1)
}

// RunKilled processes only the first `after` schedule entries and then
// returns without flushing or collecting results — the restart drill's
// stand-in for kill -9 mid-run. Only the durable store's committed
// generations survive; a subsequent Run on the same DurDir resumes from
// them.
func (s *Server) RunKilled(after int) (*Report, error) {
	rep, _, err := s.run(after)
	return rep, err
}

func (s *Server) run(killAfter int) (*Report, []temporal.Event, error) {
	cfg := s.cfg
	lat := cfg.Obs.Histogram("latency")

	rep := &Report{}
	pending := make(map[temporal.Time]time.Time, cfg.Queue)
	var sumClicked, sumUnclicked float64
	var nClicked, nUnclicked int
	seen := make(map[temporal.Time]bool)
	onEvent := func(e temporal.Event) {
		t := temporal.Time(e.Payload[0].AsInt())
		if sent, ok := pending[t]; ok {
			lat.Observe(time.Since(sent))
			delete(pending, t)
			rep.Scored++
		}
		if !seen[t] {
			seen[t] = true
			score := e.Payload[4].AsFloat()
			if e.Payload[3].AsInt() == 1 {
				sumClicked += score
				nClicked++
			} else {
				sumUnclicked += score
				nUnclicked++
			}
		}
	}

	streamCfg := core.DefaultConfig()
	streamCfg.Obs = cfg.Obs
	opts := []core.StreamOption{
		core.WithMachines(cfg.Machines),
		core.WithConfig(streamCfg),
		core.WithOnEvent(onEvent),
	}
	if cfg.Rebalance != nil {
		opts = append(opts, core.WithRebalance(*cfg.Rebalance))
	}
	if cfg.Intake > 0 {
		opts = append(opts, core.WithIntake(cfg.Intake))
	}
	plan := bt.ScorePlan(s.params, true)
	schemas := map[string]*temporal.Schema{
		bt.SourceReduced: bt.TrainSchema,
		bt.SourceModels:  bt.ModelSchema,
	}
	var job *core.StreamingJob
	var rec *dur.Recovery
	var err error
	if cfg.DurDir != "" {
		store, oerr := dur.OpenStore(cfg.DurDir, dur.Options{FS: cfg.DurFS, Obs: cfg.Obs.Child("dur")})
		if oerr != nil {
			return nil, nil, oerr
		}
		job, rec, err = core.RestoreFromDir(plan, schemas, store, opts...)
	} else {
		job, err = core.NewStreamingJob(plan, schemas, opts...)
	}
	if err != nil {
		return nil, nil, err
	}
	reduced, err := job.Source(bt.SourceReduced)
	if err != nil {
		return nil, nil, err
	}
	if rec == nil {
		// Lodge the models in the join's right synopsis before any wave.
		// A resumed job skips this: the recovered checkpoints carry the
		// synopsis, models included, and re-feeding would duplicate them.
		modelSrc, err := job.Source(bt.SourceModels)
		if err != nil {
			return nil, nil, err
		}
		if err := modelSrc.FeedBatch(s.models); err != nil {
			return nil, nil, err
		}
	}

	gen := workload.NewLoadGen(s.data, cfg.Load)
	lastWave := cfg.Load.Start

	// On resume, the recovered generation carries the source's committed
	// input offset — the schedule index of the request that triggered its
	// wave. The driver *seeks*: the load generator skips straight past the
	// committed prefix (same RNG draws, no row materialization, nothing
	// fed) and ingestion restarts with the wave-triggering request —
	// exactly the tail the dead process never durably committed.
	startIdx := 0
	if rec != nil {
		pos, ok := reduced.Position()
		if !ok {
			return nil, nil, fmt.Errorf("serve: generation %d has no %q input offset to resume from", rec.Gen, bt.SourceReduced)
		}
		rep.Resumed = true
		gen.Skip(int(pos))
		startIdx = int(pos)
		lastWave = rec.Snap.Wave
	}

	// In paced mode a generator goroutine emits requests on the fixed
	// open-loop schedule into a bounded queue; a full queue blocks it
	// (committed-path backpressure), but the schedule's timestamps keep
	// marching, so the wait surfaces as measured latency.
	var intake chan timedReq
	if cfg.Rate > 0 {
		intake = make(chan timedReq, cfg.Queue)
		go func() {
			defer close(intake)
			start := time.Now()
			gap := time.Duration(float64(time.Second) / cfg.Rate)
			for i := startIdx; i < cfg.Requests; i++ {
				sched := start.Add(time.Duration(i-startIdx) * gap)
				if d := time.Until(sched); d > 0 {
					time.Sleep(d)
				}
				intake <- timedReq{req: gen.Next(), sched: sched}
			}
		}()
	}

	ingest := func(tr timedReq) error {
		req := tr.req
		rep.Requests++
		if req.Search {
			rep.Searches++
			return nil
		}
		rep.Impressions++
		rep.RowsFed += len(req.Rows)
		pending[req.Time] = tr.sched
		return reduced.FeedBatch(temporal.RowsToPointEvents(req.Rows, 0))
	}

	start := time.Now()

	processed, killed := 0, false
	step := func(tr timedReq) error {
		if t := tr.req.Time; t-lastWave >= cfg.WaveEvery {
			lastWave = t
			// Publish the input offset the wave's generation will carry:
			// the schedule index of the request triggering this wave —
			// everything before it is admitted and about to be durable.
			reduced.SetPosition(int64(tr.req.Seq))
			if err := job.Advance(t); err != nil {
				return err
			}
		}
		if err := ingest(tr); err != nil {
			return err
		}
		processed++
		return nil
	}
	var feedErr error
	if intake != nil {
		for tr := range intake {
			if feedErr = step(tr); feedErr != nil {
				break
			}
			if killAfter >= 0 && processed >= killAfter {
				killed = true
				break
			}
		}
		if killed {
			// Unblock the paced generator so it can run to completion.
			go func() {
				for range intake {
				}
			}()
		}
	} else {
		for i := startIdx; i < cfg.Requests; i++ {
			if feedErr = step(timedReq{req: gen.Next(), sched: time.Now()}); feedErr != nil {
				break
			}
			if killAfter >= 0 && processed >= killAfter {
				killed = true
				break
			}
		}
	}
	if feedErr != nil {
		return nil, nil, feedErr
	}
	if killed {
		// kill -9: no flush, no graceful teardown. Whatever the durable
		// store committed is all the next process gets.
		rep.Duration = time.Since(start)
		return rep, nil, nil
	}
	job.Flush()
	rep.Duration = time.Since(start)
	results, err := job.Results()
	if err != nil {
		return nil, nil, err
	}

	rep.P50, rep.P99, rep.MaxLatency = lat.Quantile(0.50), lat.Quantile(0.99), lat.Max()
	if secs := rep.Duration.Seconds(); secs > 0 {
		rep.EventsPerSec = float64(rep.Scored) / secs
	}
	rep.Workers = job.Workers()
	for _, n := range job.Partitions() {
		if n > rep.Partitions {
			rep.Partitions = n
		}
	}
	if rep.Partitions > 0 {
		rep.PerPartition = rep.EventsPerSec / float64(rep.Partitions)
	}
	rep.Migrations = len(job.Migrations())
	for _, p := range cfg.Obs.Snapshot() {
		if p.Name == "deferred_events" {
			rep.Deferred += p.Value
		}
	}
	if nClicked > 0 {
		rep.MeanScoreClicked = sumClicked / float64(nClicked)
	}
	if nUnclicked > 0 {
		rep.MeanScoreUnclicked = sumUnclicked / float64(nUnclicked)
	}
	return rep, results, nil
}

// String renders the report in the BENCH-friendly key=value shape the
// bench-json harness parses.
func (r *Report) String() string {
	return fmt.Sprintf(
		"serve: requests=%d impressions=%d scored=%d rows=%d duration=%s\n"+
			"serve: p50_us=%d p99_us=%d max_us=%d\n"+
			"serve: events_per_sec=%.1f partitions=%d events_per_sec_per_partition=%.1f migrations=%d deferred=%d\n"+
			"serve: mean_score_clicked=%.4f mean_score_unclicked=%.4f",
		r.Requests, r.Impressions, r.Scored, r.RowsFed, r.Duration.Round(time.Millisecond),
		r.P50.Microseconds(), r.P99.Microseconds(), r.MaxLatency.Microseconds(),
		r.EventsPerSec, r.Partitions, r.PerPartition, r.Migrations, r.Deferred,
		r.MeanScoreClicked, r.MeanScoreUnclicked,
	)
}
