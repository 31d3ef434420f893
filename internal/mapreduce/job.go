package mapreduce

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"timr/internal/dur"
	"timr/internal/obs"
	"timr/internal/temporal"
)

// Reducer is the per-partition computation of a stage (paper §II-B: "a
// reducer method that accepts all rows belonging to the same partition,
// and returns result rows"). in holds the partition's shuffle output, one
// segment list per stage input: each segment is one shuffle run
// (resident or spilled), a contiguous chunk of one input partition in its
// original order, so it is time-sorted whenever that input partition was.
// Reducers that want whole row slices call Materialize; TiMR's reducer
// streams the runs through a k-way merge instead. Reducers must be
// deterministic in their input: the cluster restarts failed attempts and
// verifies repeatability.
type Reducer func(part int, in [][]Segment, emit func(Row)) error

// Stage is one map-reduce stage: a key declaration (the "map" side) plus
// a reducer applied to every partition. A stage that declares neither
// PartitionCols nor MultiPartition sends every row to partition 0.
type Stage struct {
	Name      string
	Inputs    []string
	Output    string
	OutSchema *Schema
	// NumPartitions defaults to the cluster's machine count — the paper's
	// hash(key) mod #machines scheme (§III-C.3).
	NumPartitions int
	// PartitionCols declares the key columns per input source: a row goes
	// to partition temporal.HashRow(row, PartitionCols[src]) mod
	// NumPartitions, so rows with equal keys meet in the same reducer
	// invocation. Declaring columns rather than a function is what
	// enables the columnar map fast path: columnar input segments are
	// hashed column-at-a-time (dictionary entries hashed once, not once
	// per row) and routed by index permutation instead of materializing
	// rows.
	PartitionCols [][]int
	// RunKeyCols, set alongside RunKey, names per source the int64
	// column RunKey reads (-1 for none), so the columnar path can check
	// run order against the raw column vector. RunKeyCols[src] must
	// agree with RunKey(r, src) == r[RunKeyCols[src]].AsInt().
	RunKeyCols []int
	// MultiPartition, when set, supersedes PartitionCols and may
	// replicate a row into several partitions (given directly as
	// partition indexes in [0, NumPartitions)). TiMR's temporal
	// partitioning uses this: events in a span-overlap region belong to
	// both adjacent spans (§III-B).
	MultiPartition func(r Row, src int, nparts int) []int
	Reduce         Reducer
	// RunKey, when set, extracts the sort key each input partition is
	// ordered by (per source). The map phase uses it to annotate every
	// shuffle run's Segment.Sorted flag inline, which is the only moment
	// sortedness can be established without re-reading a spilled run.
	// When nil, runs are conservatively marked unsorted.
	RunKey func(r Row, src int) int64
}

// SpillAll, as a MemoryBudget, forces every shuffle run and output
// partition to disk — the "spill everything" end of the equivalence
// sweep.
const SpillAll int64 = -1

// Config describes the simulated cluster.
type Config struct {
	Machines    int     // parallel reducer slots (paper: ~150)
	FailureRate float64 // probability that a reducer attempt fails
	MaxAttempts int     // per reducer task (default 4)
	Seed        int64   // seed for failure injection
	// ShufflePerRow is the modeled cost of repartitioning one row over
	// the network (write + transfer + read), charged to the makespan
	// accounting; it does not slow real execution.
	ShufflePerRow time.Duration
	// MapWorkers caps the worker pool of every stage phase (map,
	// reduce). Zero (the default) uses min(Machines, GOMAXPROCS); 1
	// forces the serial reference path that the shuffle benchmark and
	// determinism tests compare against. The shuffled row order is
	// identical for every setting.
	MapWorkers int
	// MemoryBudget bounds the estimated resident bytes (see RowBytes) a
	// stage may hold for shuffle runs, and separately for its output
	// partitions. 0 (the zero value) means unlimited — everything stays
	// resident, byte-for-byte the pre-spill behavior. A negative value
	// (SpillAll) spills every run and output segment. A positive value
	// keeps runs resident in deterministic (partition, source, map-task)
	// order until the budget is spent, then spills the rest, so the
	// spill set is a pure function of the input — never of goroutine
	// scheduling.
	MemoryBudget int64
	// SpillDir roots the cluster's spill directory (default: the OS temp
	// dir). Created lazily on first spill; removed by Cluster.Close.
	SpillDir string
	// SpillFS is the file-system seam spill files are created through
	// (default: the real OS, dur.OS{}). Tests substitute dur.FaultFS to
	// exercise full disks, torn writes and failed fsyncs against the
	// production spill paths.
	SpillFS dur.FS
}

// DefaultConfig is a 150-machine failure-free cluster, mirroring the
// paper's experimental setup. The 5µs/row shuffle charge models writing,
// transferring and re-reading a ~100-byte row through 2012-era disks and
// interconnect — roughly the per-row CPU cost of the engine, as on real
// clusters where repartitioning a dataset costs about as much as one
// processing pass over it.
func DefaultConfig() Config {
	return Config{Machines: 150, MaxAttempts: 4, ShufflePerRow: 5 * time.Microsecond}
}

// TaskStat records one reducer task's accounting.
type TaskStat struct {
	Stage     string
	Partition int
	Rows      int
	Attempts  int
	Duration  time.Duration // successful attempt only
	// RetryTime is the time burned by failed attempts of this task. The
	// cluster really runs those attempts (and discards their output), so
	// their cost must appear in the load model: a machine that spends 3
	// attempts on a partition is occupied for all 3, and with a nonzero
	// failure rate the makespan must grow accordingly.
	RetryTime time.Duration
}

// StageStat aggregates a stage's accounting.
type StageStat struct {
	Name         string
	InputRows    int
	ShuffleRows  int
	ShuffleBytes int // estimated repartitioned volume (see RowBytes)
	OutputRows   int
	Partitions   int
	Failures     int
	// Spill accounting: segments and encoded bytes this stage wrote to
	// spill files, and the bytes/wall-time it spent reading spilled
	// segments back (its own shuffle runs plus any spilled input from
	// upstream stages).
	SpillSegments  int
	SpillBytes     int64
	SpillReadBytes int64
	SpillReadNs    int64
	// Maps records one entry per map task (a contiguous chunk of one
	// input partition, see mapChunkRows): rows scanned and the real time
	// spent partitioning them. Map tasks never fail in the simulator
	// (partitioning is deterministic and side-effect free), so Attempts
	// is always 1 and RetryTime zero.
	Maps     []TaskStat
	Tasks    []TaskStat
	WallTime time.Duration // real elapsed time of the stage
}

// TotalTaskTime sums successful reducer durations (the "work").
func (s *StageStat) TotalTaskTime() time.Duration {
	var d time.Duration
	for _, t := range s.Tasks {
		d += t.Duration
	}
	return d
}

// TotalMapTime sums map task durations (the partitioning work).
func (s *StageStat) TotalMapTime() time.Duration {
	var d time.Duration
	for _, t := range s.Maps {
		d += t.Duration
	}
	return d
}

// TotalRetryTime sums time spent in failed attempts across tasks.
func (s *StageStat) TotalRetryTime() time.Duration {
	var d time.Duration
	for _, t := range s.Tasks {
		d += t.RetryTime
	}
	return d
}

// MaxTaskRows returns the largest reducer input (rows) across tasks.
func (s *StageStat) MaxTaskRows() int {
	max := 0
	for _, t := range s.Tasks {
		if t.Rows > max {
			max = t.Rows
		}
	}
	return max
}

// RowSkew is the per-partition skew of the stage: max reducer input over
// mean reducer input (1.0 = perfectly balanced). Skew bounds speedup —
// the slowest reducer gates the stage — which is why the paper's
// temporal partitioning matters for keyless queries.
func (s *StageStat) RowSkew() float64 {
	if len(s.Tasks) == 0 {
		return 0
	}
	total := 0
	for _, t := range s.Tasks {
		total += t.Rows
	}
	mean := float64(total) / float64(len(s.Tasks))
	if mean == 0 {
		return 0
	}
	return float64(s.MaxTaskRows()) / mean
}

// Makespan computes the simulated completion time of the stage on m
// machines: the map phase (partitioning chunks, LPT list scheduling),
// then the modeled shuffle cost (perfectly parallel across machines),
// then the reduce phase (LPT again). The phases are sequential barriers,
// as in the basic M-R model.
func (s *StageStat) Makespan(m int, shufflePerRow time.Duration) time.Duration {
	if m <= 0 {
		m = 1
	}
	shuffle := time.Duration(s.ShuffleRows) * shufflePerRow / time.Duration(m)
	return lptMakespan(s.Maps, m) + shuffle + lptMakespan(s.Tasks, m)
}

// lptMakespan schedules tasks onto m machines by longest-processing-time
// list scheduling and returns the finishing time of the last machine. A
// task occupies its machine for the failed attempts too; M-R restarts a
// failed reducer from scratch on the same input.
func lptMakespan(tasks []TaskStat, m int) time.Duration {
	if len(tasks) == 0 {
		return 0
	}
	durs := make([]time.Duration, len(tasks))
	for i, t := range tasks {
		durs[i] = t.Duration + t.RetryTime
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] > durs[j] })
	loads := make([]time.Duration, m)
	for _, d := range durs {
		// Assign to the least-loaded machine.
		min := 0
		for i := 1; i < m; i++ {
			if loads[i] < loads[min] {
				min = i
			}
		}
		loads[min] += d
	}
	var max time.Duration
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return max
}

// JobStat aggregates a whole job.
type JobStat struct {
	Stages []StageStat
}

// Makespan sums per-stage makespans (stages are sequential barriers, as in
// the basic M-R model).
func (j *JobStat) Makespan(m int, shufflePerRow time.Duration) time.Duration {
	var d time.Duration
	for i := range j.Stages {
		d += j.Stages[i].Makespan(m, shufflePerRow)
	}
	return d
}

// Cluster executes jobs against an FS under a Config.
type Cluster struct {
	FS  *FS
	Cfg Config
	// Obs, when set, receives per-stage metrics under a "stage.<name>"
	// child scope: row/byte counters, failure and retry accounting, task
	// duration histograms, skew gauges, and spill traffic. Nil disables
	// emission.
	Obs *obs.Scope

	spillMu    sync.Mutex
	spillDir   string
	spillFiles []*spillFile
	spillAcct  spillIO
}

// NewCluster builds a cluster over a fresh FS.
func NewCluster(cfg Config) *Cluster {
	if cfg.Machines <= 0 {
		cfg.Machines = 1
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	return &Cluster{FS: NewFS(), Cfg: cfg}
}

// newSpillFile opens a fresh spill file in the cluster's (lazily
// created) spill directory.
func (c *Cluster) newSpillFile() (*spillFile, error) {
	c.spillMu.Lock()
	defer c.spillMu.Unlock()
	if c.spillDir == "" {
		dir, err := os.MkdirTemp(c.Cfg.SpillDir, "timr-spill-")
		if err != nil {
			return nil, fmt.Errorf("mapreduce: create spill dir: %w", err)
		}
		c.spillDir = dir
	}
	sf, err := createSpillFile(c.Cfg.SpillFS, c.spillDir, &c.spillAcct)
	if err != nil {
		return nil, err
	}
	c.spillFiles = append(c.spillFiles, sf)
	return sf, nil
}

// releaseSpillFile closes and deletes one spill file (a stage's shuffle
// runs, dead once its reducers finish).
func (c *Cluster) releaseSpillFile(sf *spillFile) {
	c.spillMu.Lock()
	for i, f := range c.spillFiles {
		if f == sf {
			c.spillFiles = append(c.spillFiles[:i], c.spillFiles[i+1:]...)
			break
		}
	}
	c.spillMu.Unlock()
	sf.close()
}

// Close deletes every spill file the cluster created. Spilled segments
// of datasets still in the FS become unreadable; call it when done with
// the cluster's outputs. A cluster that never spilled needs no Close.
func (c *Cluster) Close() error {
	c.spillMu.Lock()
	defer c.spillMu.Unlock()
	var first error
	for _, sf := range c.spillFiles {
		if err := sf.close(); err != nil && first == nil {
			first = err
		}
	}
	c.spillFiles = nil
	if c.spillDir != "" {
		if err := os.RemoveAll(c.spillDir); err != nil && first == nil {
			first = err
		}
		c.spillDir = ""
	}
	return first
}

// Run executes the stages in order, returning accounting for the job.
func (c *Cluster) Run(stages ...Stage) (*JobStat, error) {
	job := &JobStat{}
	for i := range stages {
		st, err := c.runStage(&stages[i])
		if err != nil {
			return job, fmt.Errorf("stage %s: %w", stages[i].Name, err)
		}
		job.Stages = append(job.Stages, *st)
	}
	return job, nil
}

// injectedFailure implements deterministic failure injection: whether
// attempt a of (stage, partition) fails is a pure function of the seed.
func (c *Cluster) injectedFailure(stage string, part, attempt int) bool {
	if c.Cfg.FailureRate <= 0 {
		return false
	}
	h := temporal.HashSeed
	h = temporal.String(stage).Hash(h)
	h = temporal.Int(int64(part)).Hash(h)
	h = temporal.Int(int64(attempt)).Hash(h)
	h = temporal.Int(c.Cfg.Seed).Hash(h)
	r := rand.New(rand.NewSource(int64(h)))
	return r.Float64() < c.Cfg.FailureRate
}

// mapChunkRows is the map-task granule: each map task partitions one
// contiguous chunk of at most this many rows from one input partition.
// Small enough to load-balance skewed inputs across workers, large enough
// that per-task bookkeeping is noise. Spilled output segments are capped
// at the same row count, so a spilled segment always maps to exactly one
// map task downstream.
const mapChunkRows = 64 << 10

// mapTask is one unit of map-phase work: a chunk of rows (or a columnar
// slice) from one input, partitioned into local per-destination
// buckets. Tasks execute on any worker in any order; determinism comes
// from walking buckets in task-creation order afterwards.
type mapTask struct {
	src  int
	rows []Row              // resident input chunk …
	cb   *temporal.ColBatch // … or a resident columnar slice …
	seg  Segment            // … or a spilled segment, decoded by the worker

	buckets      [][]Row              // per destination partition, filled by the worker
	colBuckets   []*temporal.ColBatch // columnar fast path: gathered per-destination batches
	bucketBytes  []int                // RowBytes per bucket (budget accounting)
	bucketSorted []bool               // per-bucket RunKey order, nil when RunKey unset
	bytes        int                  // shuffle bytes produced (RowBytes per destination copy)
	dups         int                  // shuffle rows produced (>= input rows under MultiPartition)
	stat         TaskStat
	err          error // user MultiPartition/RunKey panic or spill I/O, isolated by the worker
}

// workers resolves the worker-pool size for a phase with n parallel
// tasks: MapWorkers when set, otherwise min(Machines, GOMAXPROCS),
// clamped to [1, n]. The map and reduce phases share this derivation so
// MapWorkers applies uniformly.
func (c *Cluster) workers(n int) int {
	w := c.Cfg.MapWorkers
	if w <= 0 {
		w = c.Cfg.Machines
		if max := runtime.GOMAXPROCS(0); w > max {
			w = max
		}
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// colRunKeys resolves the raw run-key vector for a columnar chunk, or
// nil (with ok=false) when the stage's run key cannot be read off a
// column vector — in which case the task falls back to the row path so
// sortedness metadata matches the row plan exactly.
func colRunKeys(s *Stage, cb *temporal.ColBatch, src int) ([]int64, bool) {
	if s.RunKey == nil {
		return nil, true
	}
	if src >= len(s.RunKeyCols) || s.RunKeyCols[src] < 0 {
		return nil, false
	}
	keys := cb.IntCol(s.RunKeyCols[src])
	return keys, keys != nil
}

// runMapTaskColumnar is the columnar map fast path: per-row partition
// hashes and encoded byte lengths come from vectorized column passes
// (dictionary entries hashed and measured once per batch, not once per
// row), and each destination bucket is a Gather of row indexes — no Row
// headers, no cell copies. Hashes and byte sums agree bit for bit with
// the row path, so partition assignment and budget keep/spill decisions
// are identical whichever representation carries a chunk.
func runMapTaskColumnar(s *Stage, t *mapTask, nparts int, cb *temporal.ColBatch, keys []int64) error {
	n := cb.Len()
	t.stat.Rows = n
	t.bucketBytes = make([]int, nparts)
	hashes := cb.HashRows(s.PartitionCols[t.src], nil)
	lens := cb.EncodedRowLens(nil)
	idx := make([][]int32, nparts)
	var bucketLast []int64
	if s.RunKey != nil {
		t.bucketSorted = make([]bool, nparts)
		for i := range t.bucketSorted {
			t.bucketSorted[i] = true
		}
		bucketLast = make([]int64, nparts)
	}
	for i := 0; i < n; i++ {
		p := int(hashes[i] % uint64(nparts))
		if keys != nil {
			if len(idx[p]) > 0 && keys[i] < bucketLast[p] {
				t.bucketSorted[p] = false
			}
			bucketLast[p] = keys[i]
		}
		idx[p] = append(idx[p], int32(i))
		b := int(lens[i])
		t.bucketBytes[p] += b
		t.dups++
		t.bytes += b
	}
	t.colBuckets = make([]*temporal.ColBatch, nparts)
	for p, list := range idx {
		if len(list) > 0 {
			t.colBuckets[p] = cb.Gather(list)
		}
	}
	return nil
}

// runMapTask partitions one task's rows into per-destination buckets,
// tracking per-bucket byte volume and (when the stage declares a
// RunKey) whether each bucket remains sorted by it — the only moment
// run sortedness can be recorded without re-reading the run.
func runMapTask(s *Stage, t *mapTask, nparts int) error {
	cb := t.cb
	if cb == nil && t.rows == nil && t.seg.Len() > 0 {
		var err error
		if cb, err = t.seg.ColBatch(); err != nil {
			return err
		}
	}
	if cb != nil && s.PartitionCols != nil && s.MultiPartition == nil {
		if keys, ok := colRunKeys(s, cb, t.src); ok {
			return runMapTaskColumnar(s, t, nparts, cb, keys)
		}
	}
	rows := t.rows
	if rows == nil {
		if cb != nil {
			rows = cb.MaterializeRows()
		} else if t.seg.Len() > 0 {
			var err error
			if rows, err = t.seg.Materialize(); err != nil {
				return err
			}
		}
	}
	t.stat.Rows = len(rows)
	t.buckets = make([][]Row, nparts)
	t.bucketBytes = make([]int, nparts)
	var bucketLast []int64
	if s.RunKey != nil {
		t.bucketSorted = make([]bool, nparts)
		for i := range t.bucketSorted {
			t.bucketSorted[i] = true
		}
		bucketLast = make([]int64, nparts)
	}
	route := func(p int, r Row, b int, key int64) {
		if bucketLast != nil {
			if len(t.buckets[p]) > 0 && key < bucketLast[p] {
				t.bucketSorted[p] = false
			}
			bucketLast[p] = key
		}
		t.buckets[p] = append(t.buckets[p], r)
		t.bucketBytes[p] += b
		t.dups++
		t.bytes += b
	}
	for _, r := range rows {
		b := RowBytes(r)
		var key int64
		if s.RunKey != nil {
			key = s.RunKey(r, t.src)
		}
		if s.MultiPartition != nil {
			for _, p := range s.MultiPartition(r, t.src, nparts) {
				route(p, r, b, key)
			}
			continue
		}
		p := 0
		if s.PartitionCols != nil {
			p = int(temporal.HashRow(r, s.PartitionCols[t.src]) % uint64(nparts))
		}
		route(p, r, b, key)
	}
	return nil
}

// stageFiles is the single owner of the spill files one stage creates.
// Every file is registered here at creation; when the stage ends the
// shuffle file (consumed only by this stage's reducers) is always
// released, and on failure the output file is too — a failed stage
// publishes no dataset, so segments pointing into that file are
// unreachable and its bytes would otherwise sit on disk until
// Cluster.Close (or leak entirely if the caller never got that far).
type stageFiles struct {
	c       *Cluster
	shuffle *spillFile
	out     *spillFile
}

func (f *stageFiles) shuffleFile() (*spillFile, error) {
	if f.shuffle == nil {
		sf, err := f.c.newSpillFile()
		if err != nil {
			return nil, err
		}
		f.shuffle = sf
	}
	return f.shuffle, nil
}

func (f *stageFiles) outFile() (*spillFile, error) {
	if f.out == nil {
		sf, err := f.c.newSpillFile()
		if err != nil {
			return nil, err
		}
		f.out = sf
	}
	return f.out, nil
}

func (f *stageFiles) finish(failed bool) {
	if f.shuffle != nil {
		f.c.releaseSpillFile(f.shuffle)
		f.shuffle = nil
	}
	if failed && f.out != nil {
		f.c.releaseSpillFile(f.out)
		f.out = nil
	}
}

func (c *Cluster) runStage(s *Stage) (*StageStat, error) {
	files := &stageFiles{c: c}
	stat, err := c.runStageFiles(s, files)
	files.finish(err != nil)
	return stat, err
}

func (c *Cluster) runStageFiles(s *Stage, files *stageFiles) (*StageStat, error) {
	start := time.Now()
	ioStart := c.spillAcct.snapshot()
	nparts := s.NumPartitions
	if nparts <= 0 {
		nparts = c.Cfg.Machines
	}
	stat := &StageStat{Name: s.Name, Partitions: nparts}
	if s.Reduce == nil {
		return stat, fmt.Errorf("no reducer")
	}

	// ---- Map phase: read inputs, partition rows in parallel ----
	// Chunk every input partition into map tasks in (src, partition,
	// segment, chunk) order; that fixed order is what the shuffle-run walk
	// below replays, so the shuffled row order is identical no matter how
	// many workers run or how they interleave. A spilled input segment is
	// one map task (its writer capped it at mapChunkRows); resident
	// segments are sliced zero-copy.
	var tasks []*mapTask
	for src, name := range s.Inputs {
		ds, err := c.FS.Read(name)
		if err != nil {
			return stat, err
		}
		for p := 0; p < ds.NumPartitions(); p++ {
			for _, seg := range ds.Partition(p) {
				if seg.Spilled() {
					tasks = append(tasks, &mapTask{src: src, seg: seg})
					continue
				}
				if cb := seg.ResidentColumnar(); cb != nil {
					for off := 0; off < cb.Len(); off += mapChunkRows {
						end := off + mapChunkRows
						if end > cb.Len() {
							end = cb.Len()
						}
						tasks = append(tasks, &mapTask{src: src, cb: cb.Slice(off, end)})
					}
					continue
				}
				rows := seg.Resident()
				for off := 0; off < len(rows); off += mapChunkRows {
					end := off + mapChunkRows
					if end > len(rows) {
						end = len(rows)
					}
					tasks = append(tasks, &mapTask{src: src, rows: rows[off:end]})
				}
			}
		}
	}
	workers := c.workers(len(tasks))
	var next atomic.Int64
	var mwg sync.WaitGroup
	for w := 0; w < workers; w++ {
		mwg.Add(1)
		go func() {
			defer mwg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				t := tasks[i]
				t0 := time.Now()
				// Isolate user MultiPartition/RunKey panics: one poisoned
				// row must fail the job with a diagnosable error, not kill
				// the process (and every other in-flight task) with it.
				func() {
					defer func() {
						if rec := recover(); rec != nil {
							t.err = fmt.Errorf("map task %d panicked: %v", i, rec)
						}
					}()
					t.err = runMapTask(s, t, nparts)
				}()
				t.stat.Stage = s.Name
				t.stat.Partition = i
				t.stat.Attempts = 1
				t.stat.Duration = time.Since(t0)
			}
		}()
	}
	mwg.Wait()
	for _, t := range tasks {
		if t.err != nil {
			return stat, t.err
		}
	}

	// ---- Shuffle-run walk: assemble per-partition segment lists ----
	// parts[p][src] lists the non-empty (p, src) buckets in task-creation
	// order — row-identical to the serial single-pass shuffle, each bucket
	// one run. The walk is sequential and deterministic, which makes the
	// budget decision deterministic too: runs stay resident in (partition,
	// source, task) order until MemoryBudget is spent, the rest spill as
	// (possibly sorted) runs to one stage-lifetime spill file.
	budget := c.Cfg.MemoryBudget
	parts := make([][][]Segment, nparts)
	var resident int64
	for p := 0; p < nparts; p++ {
		parts[p] = make([][]Segment, len(s.Inputs))
		for src := range s.Inputs {
			for _, t := range tasks {
				if t.src != src {
					continue
				}
				var colb *temporal.ColBatch
				nrows := 0
				if t.colBuckets != nil {
					if colb = t.colBuckets[p]; colb != nil {
						nrows = colb.Len()
					}
				} else if t.buckets != nil {
					nrows = len(t.buckets[p])
				}
				if nrows == 0 {
					continue
				}
				sorted := t.bucketSorted != nil && t.bucketSorted[p]
				keep := budget == 0 || (budget > 0 && resident+int64(t.bucketBytes[p]) <= budget)
				if keep {
					resident += int64(t.bucketBytes[p])
					if colb != nil {
						parts[p][src] = append(parts[p][src], ColumnarSegment(colb, sorted))
					} else {
						parts[p][src] = append(parts[p][src], ResidentSegment(t.buckets[p], sorted))
					}
					continue
				}
				// Shuffle runs are consumed only by this stage's reducers;
				// the file is released by stageFiles when the stage ends.
				sf, err := files.shuffleFile()
				if err != nil {
					return stat, err
				}
				var seg Segment
				if colb != nil {
					seg, err = sf.writeColSegment(colb, sorted)
					t.colBuckets[p] = nil // evicted
				} else {
					seg, err = sf.writeSegment(t.buckets[p], sorted)
					t.buckets[p] = nil // evicted
				}
				if err != nil {
					return stat, err
				}
				parts[p][src] = append(parts[p][src], seg)
			}
		}
	}
	for _, t := range tasks {
		stat.InputRows += t.stat.Rows
		stat.ShuffleRows += t.dups
		stat.ShuffleBytes += t.bytes
		stat.Maps = append(stat.Maps, t.stat)
		// Resident runs stay referenced by their segments.
		t.buckets, t.colBuckets = nil, nil
	}

	// ---- Reduce phase: run reducers on a bounded worker pool ----
	workers = c.workers(nparts)
	type result struct {
		part int
		rows []Row
		stat TaskStat
		err  error
	}
	sem := make(chan struct{}, workers)
	results := make([]result, nparts)
	var wg sync.WaitGroup
	for p := 0; p < nparts; p++ {
		n := 0
		for _, segs := range parts[p] {
			for i := range segs {
				n += segs[i].Len()
			}
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(p, n int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res := result{part: p, stat: TaskStat{Stage: s.Name, Partition: p, Rows: n}}
			succeeded := false
			var lastPanic any
			for attempt := 1; attempt <= c.Cfg.MaxAttempts; attempt++ {
				res.stat.Attempts = attempt
				var out []Row
				t0 := time.Now()
				fail := c.injectedFailure(s.Name, p, attempt)
				emit := func(r Row) { out = append(out, r) }
				var err error
				panicked := false
				// Isolate user reducer panics: a panicking reducer is a
				// failed attempt — output discarded, time charged, task
				// restarted — exactly like an injected machine failure,
				// instead of taking down the whole process.
				func() {
					defer func() {
						if rec := recover(); rec != nil {
							panicked = true
							lastPanic = rec
						}
					}()
					err = s.Reduce(p, parts[p], emit)
				}()
				if fail || panicked {
					// The attempt's partial output is discarded, exactly
					// as M-R discards output of failed reducers; the task
					// is then restarted from scratch (§III-C.1). The time
					// it burned is real machine occupancy, though — charge
					// it, or makespans would be blind to the failure rate.
					res.stat.RetryTime += time.Since(t0)
					continue
				}
				if err != nil {
					res.err = err
					break
				}
				res.stat.Duration = time.Since(t0)
				res.rows = out
				succeeded = true
				break
			}
			if !succeeded && res.err == nil {
				if lastPanic != nil {
					res.err = fmt.Errorf("partition %d failed after %d attempts (last panic: %v)", p, c.Cfg.MaxAttempts, lastPanic)
				} else {
					res.err = fmt.Errorf("partition %d failed after %d attempts", p, c.Cfg.MaxAttempts)
				}
			}
			results[p] = res
		}(p, n)
	}
	wg.Wait()

	// ---- Output assembly: resident up to the budget, spilled beyond ----
	// Output keeps its own budget pass (the shuffle runs are dead by now).
	// Spilled output segments are capped at mapChunkRows so a downstream
	// map phase gets bounded tasks.
	out := NewDataset(s.OutSchema, nparts)
	var outResident int64
	for p := range results {
		res := &results[p]
		if res.stat.Rows == 0 {
			continue
		}
		if res.err != nil {
			return stat, res.err
		}
		stat.Failures += res.stat.Attempts - 1
		stat.Tasks = append(stat.Tasks, res.stat)
		stat.OutputRows += len(res.rows)
		if budget == 0 {
			out.Append(p, res.rows)
			continue
		}
		for off := 0; off < len(res.rows); off += mapChunkRows {
			end := off + mapChunkRows
			if end > len(res.rows) {
				end = len(res.rows)
			}
			chunk := res.rows[off:end]
			var chunkBytes int64
			for _, r := range chunk {
				chunkBytes += int64(RowBytes(r))
			}
			if budget > 0 && outResident+chunkBytes <= budget {
				outResident += chunkBytes
				out.Append(p, chunk)
				continue
			}
			of, err := files.outFile()
			if err != nil {
				return stat, err
			}
			seg, err := of.writeSegment(chunk, false)
			if err != nil {
				return stat, err
			}
			out.AppendSegment(p, seg)
		}
	}
	if s.Output != "" {
		c.FS.Write(s.Output, out)
	}
	ioEnd := c.spillAcct.snapshot()
	stat.SpillSegments = int(ioEnd.segments - ioStart.segments)
	stat.SpillBytes = ioEnd.bytes - ioStart.bytes
	stat.SpillReadBytes = ioEnd.readBytes - ioStart.readBytes
	stat.SpillReadNs = ioEnd.readNs - ioStart.readNs
	stat.WallTime = time.Since(start)
	c.emitStageMetrics(stat)
	return stat, nil
}

// Materialize decodes a reducer's segment lists into one contiguous row
// slice per source, in shuffle order, reading spilled runs back as
// needed — the input shape of reducers that work on whole partitions.
func Materialize(segs [][]Segment) ([][]Row, error) {
	in := make([][]Row, len(segs))
	for src, list := range segs {
		total := 0
		for i := range list {
			total += list[i].Len()
		}
		if total == 0 {
			continue
		}
		rows := make([]Row, 0, total)
		for i := range list {
			mat, err := list[i].Materialize()
			if err != nil {
				return nil, err
			}
			rows = append(rows, mat...)
		}
		in[src] = rows
	}
	return in, nil
}

// emitStageMetrics publishes a completed stage's accounting into the
// cluster's obs scope (no-op when Obs is nil). Counters accumulate across
// jobs run on the same cluster; gauges are high watermarks.
func (c *Cluster) emitStageMetrics(stat *StageStat) {
	if c.Obs == nil {
		return
	}
	sc := c.Obs.Child("stage." + stat.Name)
	sc.Counter("input_rows").Add(int64(stat.InputRows))
	sc.Counter("shuffle_rows").Add(int64(stat.ShuffleRows))
	sc.Counter("shuffle_bytes").Add(int64(stat.ShuffleBytes))
	sc.Counter("output_rows").Add(int64(stat.OutputRows))
	sc.Counter("tasks").Add(int64(len(stat.Tasks)))
	sc.Counter("map_tasks").Add(int64(len(stat.Maps)))
	sc.Counter("map_ns").Add(int64(stat.TotalMapTime()))
	sc.Counter("failures").Add(int64(stat.Failures))
	sc.Counter("retry_ns").Add(int64(stat.TotalRetryTime()))
	sc.Counter("spill_segments").Add(int64(stat.SpillSegments))
	sc.Counter("spill_bytes").Add(stat.SpillBytes)
	sc.Counter("spill_read_bytes").Add(stat.SpillReadBytes)
	sc.Counter("spill_read_ns").Add(stat.SpillReadNs)
	sc.Gauge("max_task_rows").SetMax(int64(stat.MaxTaskRows()))
	// Skew ×100 so the integer gauge keeps two decimals of resolution.
	sc.Gauge("row_skew_x100").SetMax(int64(stat.RowSkew() * 100))
	h := sc.Histogram("task_time")
	for _, t := range stat.Tasks {
		h.Observe(t.Duration + t.RetryTime)
	}
	mh := sc.Histogram("map_time")
	for _, t := range stat.Maps {
		mh.Observe(t.Duration)
	}
}

// RowBytes returns the exact serialized size of a row in the shared
// binary row codec — the same bytes one row occupies in a spill frame.
// MemoryBudget keep/spill accounting charges this, so a "4KB" budget
// really bounds 4KB of encoded rows; the old 8-bytes-per-value estimate
// drifted from the varint encoding and let budgeted partitions hold
// arbitrarily more than their nominal limit.
func RowBytes(r Row) int {
	return temporal.RowEncodedLen(r)
}
