package mapreduce

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"timr/internal/obs"
	"timr/internal/temporal"
)

func kvSchema() *Schema {
	return temporal.NewSchema(
		temporal.Field{Name: "K", Kind: temporal.KindInt},
		temporal.Field{Name: "V", Kind: temporal.KindInt},
	)
}

func kvRows(n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{temporal.Int(int64(i % 7)), temporal.Int(int64(i))}
	}
	return rows
}

// sumStage groups by K and sums V — the canonical word-count-shaped job.
func sumStage(in, out string, nparts int) Stage {
	return Stage{
		Name: "sum", Inputs: []string{in}, Output: out, OutSchema: kvSchema(),
		NumPartitions: nparts,
		PartitionCols: [][]int{{0}},
		Reduce: rowReducer(func(part int, in [][]Row, emit func(Row)) error {
			sums := map[int64]int64{}
			for _, r := range in[0] {
				sums[r[0].AsInt()] += r[1].AsInt()
			}
			keys := make([]int64, 0, len(sums))
			for k := range sums {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			for _, k := range keys {
				emit(Row{temporal.Int(k), temporal.Int(sums[k])})
			}
			return nil
		}),
	}
}

// rowReducer adapts a reducer over whole row slices to the segment-list
// contract, for tests that check routing rather than run structure.
func rowReducer(f func(part int, in [][]Row, emit func(Row)) error) Reducer {
	return func(part int, segs [][]Segment, emit func(Row)) error {
		in, err := Materialize(segs)
		if err != nil {
			return err
		}
		return f(part, in, emit)
	}
}

func expectSums(t *testing.T, fs *FS, name string, n int) {
	t.Helper()
	got := map[int64]int64{}
	for _, r := range fs.MustRead(name).Flatten() {
		got[r[0].AsInt()] = r[1].AsInt()
	}
	want := map[int64]int64{}
	for i := 0; i < n; i++ {
		want[int64(i%7)] += int64(i)
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("key %d: got %d, want %d", k, got[k], v)
		}
	}
}

func TestFSBasics(t *testing.T) {
	fs := NewFS()
	if _, err := fs.Read("nope"); err == nil {
		t.Error("Read of missing dataset must error")
	}
	ds := SinglePartition(kvSchema(), kvRows(10))
	fs.Write("a", ds)
	fs.Write("b", ds)
	if got := fs.List(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("List = %v", got)
	}
	if fs.MustRead("a").Rows() != 10 {
		t.Error("Rows")
	}
	fs.Delete("a")
	if _, err := fs.Read("a"); err == nil {
		t.Error("deleted dataset still readable")
	}
}

func TestDatasetFlatten(t *testing.T) {
	d := NewDataset(kvSchema(), 2)
	d.Append(0, kvRows(3))
	d.Append(1, kvRows(2))
	if d.Rows() != 5 || len(d.Flatten()) != 5 {
		t.Errorf("Rows/Flatten mismatch")
	}
}

func TestSimpleJob(t *testing.T) {
	c := NewCluster(Config{Machines: 4})
	c.FS.Write("in", SinglePartition(kvSchema(), kvRows(100)))
	stat, err := c.Run(sumStage("in", "out", 4))
	if err != nil {
		t.Fatal(err)
	}
	expectSums(t, c.FS, "out", 100)
	st := stat.Stages[0]
	if st.InputRows != 100 || st.ShuffleRows != 100 {
		t.Errorf("accounting: %+v", st)
	}
	if st.OutputRows != 7 {
		t.Errorf("OutputRows = %d", st.OutputRows)
	}
}

func TestPartitionGrouping(t *testing.T) {
	// Rows with the same key must always land in the same reducer call.
	c := NewCluster(Config{Machines: 8})
	c.FS.Write("in", SinglePartition(kvSchema(), kvRows(200)))
	seen := map[int64]int{} // key -> partition
	stage := Stage{
		Name: "check", Inputs: []string{"in"}, Output: "out", OutSchema: kvSchema(),
		NumPartitions: 5,
		PartitionCols: [][]int{{0}},
		Reduce: rowReducer(func(part int, in [][]Row, emit func(Row)) error {
			for _, r := range in[0] {
				emit(Row{r[0], temporal.Int(int64(part))})
			}
			return nil
		}),
	}
	if _, err := c.Run(stage); err != nil {
		t.Fatal(err)
	}
	for _, r := range c.FS.MustRead("out").Flatten() {
		k, p := r[0].AsInt(), int(r[1].AsInt())
		if prev, ok := seen[k]; ok && prev != p {
			t.Fatalf("key %d split across partitions %d and %d", k, prev, p)
		}
		seen[k] = p
	}
}

func TestMultiStageJob(t *testing.T) {
	c := NewCluster(Config{Machines: 4})
	c.FS.Write("in", SinglePartition(kvSchema(), kvRows(50)))
	// Stage 1: identity repartition; stage 2: sum.
	ident := Stage{
		Name: "ident", Inputs: []string{"in"}, Output: "mid", OutSchema: kvSchema(),
		PartitionCols: [][]int{{1}},
		Reduce: rowReducer(func(part int, in [][]Row, emit func(Row)) error {
			for _, r := range in[0] {
				emit(r)
			}
			return nil
		}),
	}
	stat, err := c.Run(ident, sumStage("mid", "out", 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(stat.Stages) != 2 {
		t.Fatalf("stages = %d", len(stat.Stages))
	}
	expectSums(t, c.FS, "out", 50)
}

func TestStageReuseAcrossRuns(t *testing.T) {
	// Run must leave the caller's stages as it found them: running the
	// same []Stage twice succeeds and produces identical output.
	c := NewCluster(Config{Machines: 4})
	c.FS.Write("in", SinglePartition(kvSchema(), kvRows(100)))
	stages := []Stage{sumStage("in", "mid", 4), sumStage("mid", "out", 3)}
	if _, err := c.Run(stages...); err != nil {
		t.Fatal(err)
	}
	first := c.FS.MustRead("out").Flatten()
	if _, err := c.Run(stages...); err != nil {
		t.Fatalf("second run of the same stages: %v", err)
	}
	if second := c.FS.MustRead("out").Flatten(); !reflect.DeepEqual(first, second) {
		t.Fatal("second run of the same stages produced different output")
	}
	expectSums(t, c.FS, "out", 100)
}

func TestMultipleInputs(t *testing.T) {
	c := NewCluster(Config{Machines: 2})
	c.FS.Write("a", SinglePartition(kvSchema(), kvRows(10)))
	c.FS.Write("b", SinglePartition(kvSchema(), kvRows(20)))
	stage := Stage{
		Name: "join", Inputs: []string{"a", "b"}, Output: "out", OutSchema: kvSchema(),
		NumPartitions: 3,
		PartitionCols: [][]int{{0}, {0}},
		Reduce: rowReducer(func(part int, in [][]Row, emit func(Row)) error {
			emit(Row{temporal.Int(int64(len(in[0]))), temporal.Int(int64(len(in[1])))})
			return nil
		}),
	}
	if _, err := c.Run(stage); err != nil {
		t.Fatal(err)
	}
	var a, b int64
	for _, r := range c.FS.MustRead("out").Flatten() {
		a += r[0].AsInt()
		b += r[1].AsInt()
	}
	if a != 10 || b != 20 {
		t.Errorf("per-source rows: %d, %d", a, b)
	}
}

func TestFailureInjectionRetriesToSameOutput(t *testing.T) {
	// The repeatability property: with deterministic reducers, output
	// under failures+restarts must equal the failure-free output.
	run := func(failRate float64, seed int64) map[int64]int64 {
		c := NewCluster(Config{Machines: 4, FailureRate: failRate, Seed: seed, MaxAttempts: 50})
		c.FS.Write("in", SinglePartition(kvSchema(), kvRows(100)))
		stat, err := c.Run(sumStage("in", "out", 4))
		if err != nil {
			t.Fatal(err)
		}
		if failRate > 0 {
			total := 0
			for _, s := range stat.Stages {
				total += s.Failures
			}
			if total == 0 {
				t.Log("warning: no failures injected at rate", failRate)
			}
		}
		out := map[int64]int64{}
		for _, r := range c.FS.MustRead("out").Flatten() {
			out[r[0].AsInt()] = r[1].AsInt()
		}
		return out
	}
	clean := run(0, 1)
	for seed := int64(1); seed <= 5; seed++ {
		faulty := run(0.5, seed)
		if len(faulty) != len(clean) {
			t.Fatalf("seed %d: divergent output size", seed)
		}
		for k, v := range clean {
			if faulty[k] != v {
				t.Fatalf("seed %d: key %d: %d != %d", seed, k, faulty[k], v)
			}
		}
	}
}

func TestReducerErrorPropagates(t *testing.T) {
	c := NewCluster(Config{Machines: 2})
	c.FS.Write("in", SinglePartition(kvSchema(), kvRows(10)))
	stage := Stage{
		Name: "boom", Inputs: []string{"in"}, Output: "out", OutSchema: kvSchema(),
		NumPartitions: 1,
		Reduce: func(int, [][]Segment, func(Row)) error {
			return fmt.Errorf("kaput")
		},
	}
	if _, err := c.Run(stage); err == nil {
		t.Fatal("reducer error must fail the job")
	}
}

func TestPanickingReducerIsolated(t *testing.T) {
	// A reducer that panics on its first attempts must be retried like an
	// injected machine failure — output intact, failure surfaced in
	// StageStat.Failures with RetryTime charged — not crash the process.
	c := NewCluster(Config{Machines: 2, MaxAttempts: 5})
	c.FS.Write("in", SinglePartition(kvSchema(), kvRows(20)))
	attempts := 0
	base := sumStage("in", "out", 1)
	inner := base.Reduce
	base.Reduce = func(part int, in [][]Segment, emit func(Row)) error {
		attempts++
		if attempts <= 2 {
			panic("poison row")
		}
		return inner(part, in, emit)
	}
	stat, err := c.Run(base)
	if err != nil {
		t.Fatalf("recoverable panics must not fail the job: %v", err)
	}
	expectSums(t, c.FS, "out", 20)
	failures := 0
	var retry time.Duration
	for _, s := range stat.Stages {
		failures += s.Failures
		retry += s.TotalRetryTime()
	}
	if failures != 2 {
		t.Fatalf("Failures = %d, want 2 (one per panicked attempt)", failures)
	}
	if retry <= 0 {
		t.Fatal("panicked attempts must be charged RetryTime")
	}
}

func TestAlwaysPanickingReducerFailsJob(t *testing.T) {
	c := NewCluster(Config{Machines: 1, MaxAttempts: 3})
	c.FS.Write("in", SinglePartition(kvSchema(), kvRows(5)))
	stage := Stage{
		Name: "boom", Inputs: []string{"in"}, Output: "out", OutSchema: kvSchema(),
		NumPartitions: 1,
		Reduce: func(int, [][]Segment, func(Row)) error {
			panic("always")
		},
	}
	_, err := c.Run(stage)
	if err == nil {
		t.Fatal("an always-panicking reducer must exhaust attempts and fail the job")
	}
	if !strings.Contains(err.Error(), "panic") {
		t.Fatalf("job error should carry the panic message, got: %v", err)
	}
}

func TestPanickingPartitionFnFailsJobCleanly(t *testing.T) {
	c := NewCluster(Config{Machines: 2})
	c.FS.Write("in", SinglePartition(kvSchema(), kvRows(10)))
	stage := sumStage("in", "out", 2)
	stage.MultiPartition = func(r Row, src, nparts int) []int {
		if r[1].AsInt() == 7 {
			panic("poison row in map")
		}
		return []int{int(r[0].AsInt()) % nparts}
	}
	_, err := c.Run(stage)
	if err == nil {
		t.Fatal("a panicking partition fn must fail the job with an error")
	}
	if !strings.Contains(err.Error(), "panic") {
		t.Fatalf("job error should carry the panic message, got: %v", err)
	}
}

func TestPersistentFailureExhaustsAttempts(t *testing.T) {
	c := NewCluster(Config{Machines: 1, FailureRate: 1.0, MaxAttempts: 3, Seed: 7})
	c.FS.Write("in", SinglePartition(kvSchema(), kvRows(5)))
	_, err := c.Run(sumStage("in", "out", 1))
	if err == nil {
		t.Fatal("always-failing reducer must exhaust attempts")
	}
}

func TestMissingInputErrors(t *testing.T) {
	c := NewCluster(Config{Machines: 1})
	if _, err := c.Run(sumStage("ghost", "out", 1)); err == nil {
		t.Fatal("missing input must error")
	}
}

func TestEmptyPartitionsSkipped(t *testing.T) {
	c := NewCluster(Config{Machines: 4})
	c.FS.Write("in", SinglePartition(kvSchema(), kvRows(3))) // keys 0,1,2 only
	stat, err := c.Run(sumStage("in", "out", 64))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(stat.Stages[0].Tasks); got > 3 {
		t.Errorf("expected <= 3 reducer tasks, got %d", got)
	}
}

func TestMakespanScaling(t *testing.T) {
	st := StageStat{ShuffleRows: 0}
	for i := 0; i < 16; i++ {
		st.Tasks = append(st.Tasks, TaskStat{Duration: time.Second})
	}
	if got := st.Makespan(1, 0); got != 16*time.Second {
		t.Errorf("1 machine: %v", got)
	}
	if got := st.Makespan(4, 0); got != 4*time.Second {
		t.Errorf("4 machines: %v", got)
	}
	if got := st.Makespan(16, 0); got != time.Second {
		t.Errorf("16 machines: %v", got)
	}
	if got := st.Makespan(100, 0); got != time.Second {
		t.Errorf("more machines than tasks: %v", got)
	}
}

func TestMakespanShuffleCost(t *testing.T) {
	st := StageStat{ShuffleRows: 1000}
	st.Tasks = append(st.Tasks, TaskStat{Duration: time.Millisecond})
	with := st.Makespan(2, time.Microsecond)
	without := st.Makespan(2, 0)
	if with <= without {
		t.Error("shuffle cost not charged")
	}
	if with-without != 500*time.Microsecond {
		t.Errorf("shuffle charge = %v", with-without)
	}
}

// Failed attempts occupy the machine that runs them, so a nonzero
// failure rate must strictly increase the modeled makespan. This is the
// regression test for the failure-accounting bug where retry time was
// measured and then thrown away, making 0% and 50% failure rates report
// identical makespans.
func TestMakespanChargesRetryTime(t *testing.T) {
	clean := StageStat{Tasks: []TaskStat{
		{Duration: time.Second}, {Duration: time.Second},
	}}
	faulty := StageStat{Tasks: []TaskStat{
		{Duration: time.Second, RetryTime: 500 * time.Millisecond},
		{Duration: time.Second},
	}}
	if got, want := faulty.Makespan(1, 0), 2500*time.Millisecond; got != want {
		t.Errorf("faulty makespan on 1 machine = %v, want %v", got, want)
	}
	if faulty.Makespan(1, 0) <= clean.Makespan(1, 0) {
		t.Error("retry time not charged: faulty makespan <= clean makespan")
	}
	// On 2 machines LPT puts each task on its own machine; the retried
	// task still gates the stage.
	if got, want := faulty.Makespan(2, 0), 1500*time.Millisecond; got != want {
		t.Errorf("faulty makespan on 2 machines = %v, want %v", got, want)
	}
}

// End to end: run a real job under injected failures and check the
// retry time is measured and strictly increases the makespan over the
// stage's successful work alone. On one simulated machine the makespan
// is exactly Σ(duration+retry), so the comparison is deterministic even
// though individual timings are not.
func TestFailureRateIncreasesMakespan(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		c := NewCluster(Config{Machines: 4, FailureRate: 0.5, Seed: seed, MaxAttempts: 50})
		c.FS.Write("in", SinglePartition(kvSchema(), kvRows(200)))
		stat, err := c.Run(sumStage("in", "out", 4))
		if err != nil {
			t.Fatal(err)
		}
		st := stat.Stages[0]
		if st.Failures == 0 {
			continue // this seed happened to inject nothing; try the next
		}
		if st.TotalRetryTime() <= 0 {
			t.Fatalf("seed %d: %d failures but TotalRetryTime = %v", seed, st.Failures, st.TotalRetryTime())
		}
		if got, want := st.Makespan(1, 0), st.TotalMapTime()+st.TotalTaskTime()+st.TotalRetryTime(); got != want {
			t.Fatalf("seed %d: makespan(1) = %v, want map+work+retry = %v", seed, got, want)
		}
		if st.Makespan(1, 0) <= st.TotalMapTime()+st.TotalTaskTime() {
			t.Fatalf("seed %d: makespan does not exceed failure-free work", seed)
		}
		return
	}
	t.Fatal("no seed in 1..10 injected a failure at rate 0.5")
}

func TestStageSkewAndShuffleBytes(t *testing.T) {
	c := NewCluster(Config{Machines: 4})
	rows := kvRows(100)
	c.FS.Write("in", SinglePartition(kvSchema(), rows))
	// Route everything to partition 0 except key 1: maximal skew.
	stage := sumStage("in", "out", 2)
	stage.MultiPartition = func(r Row, src, nparts int) []int {
		if r[0].AsInt() == 1 {
			return []int{1}
		}
		return []int{0}
	}
	stat, err := c.Run(stage)
	if err != nil {
		t.Fatal(err)
	}
	st := stat.Stages[0]
	wantBytes := 0
	for _, r := range rows {
		wantBytes += RowBytes(r)
	}
	if st.ShuffleBytes != wantBytes {
		t.Errorf("ShuffleBytes = %d, want %d", st.ShuffleBytes, wantBytes)
	}
	// kvRows(100) has 15 rows with key 1 and 85 with other keys:
	// max/mean = 85/50.
	if got, want := st.RowSkew(), 85.0/50.0; got != want {
		t.Errorf("RowSkew = %v, want %v", got, want)
	}
	if st.MaxTaskRows() != 85 {
		t.Errorf("MaxTaskRows = %d, want 85", st.MaxTaskRows())
	}
}

// TestRowBytes pins the satellite bugfix: RowBytes is not an estimate
// but the exact encoded size of the row in the shared codec — budget
// keep/spill decisions charge precisely what spilling would write.
func TestRowBytes(t *testing.T) {
	rows := []Row{
		nil,
		{},
		{temporal.Int(1), temporal.String("hello"), temporal.Float(2.5)},
		{temporal.Null, temporal.Bool(true), temporal.Bool(false)},
		{temporal.Float(math.NaN()), temporal.Float(math.Inf(-1)), temporal.Float(0)},
		{temporal.String(""), temporal.String(strings.Repeat("x", 1<<14))},
		{temporal.Int(math.MaxInt64), temporal.Int(math.MinInt64), temporal.Int(-1)},
		{temporal.String("embedded\x00nul"), temporal.Null, temporal.Int(0)},
	}
	var enc temporal.Encoder
	for i, r := range rows {
		enc.Reset()
		enc.Row(r)
		if got, want := RowBytes(r), enc.Len(); got != want {
			t.Errorf("row %d: RowBytes = %d, encoder wrote %d bytes", i, got, want)
		}
	}
	// Property: agreement holds for arbitrary generated rows.
	cells := func(seed int64) Row {
		rng := rand.New(rand.NewSource(seed))
		r := make(Row, rng.Intn(6))
		for i := range r {
			switch rng.Intn(5) {
			case 0:
				r[i] = temporal.Null
			case 1:
				r[i] = temporal.Int(rng.Int63() - rng.Int63())
			case 2:
				r[i] = temporal.Float(rng.NormFloat64())
			case 3:
				r[i] = temporal.String(strings.Repeat("s", rng.Intn(200)))
			default:
				r[i] = temporal.Bool(rng.Intn(2) == 0)
			}
		}
		return r
	}
	for seed := int64(0); seed < 500; seed++ {
		r := cells(seed)
		enc.Reset()
		enc.Row(r)
		if got, want := RowBytes(r), enc.Len(); got != want {
			t.Fatalf("seed %d: RowBytes = %d, encoder wrote %d bytes (row %v)", seed, got, want, r)
		}
	}
}

func TestClusterEmitsStageMetrics(t *testing.T) {
	c := NewCluster(Config{Machines: 4})
	c.Obs = obs.New("cluster")
	c.FS.Write("in", SinglePartition(kvSchema(), kvRows(100)))
	if _, err := c.Run(sumStage("in", "out", 4)); err != nil {
		t.Fatal(err)
	}
	sc := c.Obs.Child("stage.sum")
	if got := sc.Counter("input_rows").Value(); got != 100 {
		t.Errorf("input_rows = %d, want 100", got)
	}
	if got := sc.Counter("output_rows").Value(); got != 7 {
		t.Errorf("output_rows = %d, want 7", got)
	}
	if sc.Counter("shuffle_bytes").Value() <= 0 {
		t.Error("shuffle_bytes not emitted")
	}
	if got := sc.Histogram("task_time").Count(); got <= 0 {
		t.Error("task_time histogram empty")
	}
}

func TestJobMakespanSumsStages(t *testing.T) {
	j := JobStat{Stages: []StageStat{
		{Tasks: []TaskStat{{Duration: time.Second}}},
		{Tasks: []TaskStat{{Duration: 2 * time.Second}}},
	}}
	if got := j.Makespan(4, 0); got != 3*time.Second {
		t.Errorf("job makespan = %v", got)
	}
}

func TestMultiPartitionReplication(t *testing.T) {
	// A row replicated into two partitions must be seen by both reducers,
	// and ShuffleRows must account for the duplication.
	c := NewCluster(Config{Machines: 2})
	c.FS.Write("in", SinglePartition(kvSchema(), kvRows(10)))
	stage := Stage{
		Name: "dup", Inputs: []string{"in"}, Output: "out", OutSchema: kvSchema(),
		NumPartitions: 2,
		MultiPartition: func(r Row, src, nparts int) []int {
			return []int{0, 1} // every row goes everywhere
		},
		Reduce: rowReducer(func(part int, in [][]Row, emit func(Row)) error {
			emit(Row{temporal.Int(int64(part)), temporal.Int(int64(len(in[0])))})
			return nil
		}),
	}
	stat, err := c.Run(stage)
	if err != nil {
		t.Fatal(err)
	}
	if stat.Stages[0].ShuffleRows != 20 {
		t.Errorf("ShuffleRows = %d, want 20", stat.Stages[0].ShuffleRows)
	}
	for _, r := range c.FS.MustRead("out").Flatten() {
		if r[1].AsInt() != 10 {
			t.Errorf("partition %d saw %d rows, want 10", r[0].AsInt(), r[1].AsInt())
		}
	}
}

func TestPropertyPartitioningIsDeterministic(t *testing.T) {
	err := quick.Check(func(k, v int64) bool {
		r := Row{temporal.Int(k), temporal.Int(v)}
		return temporal.HashRow(r, []int{0}) == temporal.HashRow(r, []int{0})
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestPropertyJobEquivalentAcrossPartitionCounts(t *testing.T) {
	// The sum job's result must be independent of the partition count.
	err := quick.Check(func(nRaw uint8, partsRaw uint8) bool {
		n := int(nRaw)%200 + 1
		nparts := int(partsRaw)%16 + 1
		c := NewCluster(Config{Machines: 4})
		c.FS.Write("in", SinglePartition(kvSchema(), kvRows(n)))
		if _, err := c.Run(sumStage("in", "out", nparts)); err != nil {
			return false
		}
		got := map[int64]int64{}
		for _, r := range c.FS.MustRead("out").Flatten() {
			got[r[0].AsInt()] = r[1].AsInt()
		}
		want := map[int64]int64{}
		for i := 0; i < n; i++ {
			want[int64(i%7)] += int64(i)
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}
