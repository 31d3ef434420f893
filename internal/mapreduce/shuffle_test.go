package mapreduce

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"timr/internal/temporal"
)

// identityStage routes everything to one partition and emits rows in the
// order received — output row order is exactly the shuffled row order, so
// determinism tests can compare shuffles through the FS.
func identityStage(in, out string) Stage {
	return Stage{
		Name: "identity", Inputs: []string{in}, Output: out, OutSchema: kvSchema(),
		NumPartitions: 1,
		Reduce: rowReducer(func(part int, in [][]Row, emit func(Row)) error {
			for _, rows := range in {
				for _, r := range rows {
					emit(r)
				}
			}
			return nil
		}),
	}
}

// multiPartitionInput builds a dataset with several partitions so the map
// phase produces several tasks even below the chunking threshold.
func multiPartitionInput(nparts, rowsPer int) *Dataset {
	ds := NewDataset(kvSchema(), nparts)
	v := 0
	for p := 0; p < nparts; p++ {
		rows := make([]Row, rowsPer)
		for i := range rows {
			rows[i] = Row{temporal.Int(int64(v % 13)), temporal.Int(int64(v))}
			v++
		}
		ds.Append(p, rows)
	}
	return ds
}

func TestParallelMapByteIdenticalToSerial(t *testing.T) {
	// The shuffled row order — and therefore every downstream dataset —
	// must not depend on the map worker count.
	run := func(workers int) *Dataset {
		c := NewCluster(Config{Machines: 8, MapWorkers: workers})
		c.FS.Write("in", multiPartitionInput(7, 500))
		if _, err := c.Run(identityStage("in", "out")); err != nil {
			t.Fatal(err)
		}
		return c.FS.MustRead("out")
	}
	serial := run(1)
	for _, workers := range []int{2, 3, 8} {
		if got := run(workers); !reflect.DeepEqual(serial, got) {
			t.Fatalf("MapWorkers=%d shuffle differs from serial", workers)
		}
	}
}

func TestMapDeterministicAcrossGOMAXPROCS(t *testing.T) {
	// Same job under different GOMAXPROCS must produce byte-identical FS
	// datasets (the default worker count follows GOMAXPROCS).
	run := func(procs int) *Dataset {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		c := NewCluster(Config{Machines: 8})
		c.FS.Write("in", multiPartitionInput(6, 700))
		if _, err := c.Run(sumStage("in", "out", 4), identityStage("out", "final")); err != nil {
			t.Fatal(err)
		}
		return c.FS.MustRead("final")
	}
	ref := run(1)
	for _, procs := range []int{2, 4} {
		if got := run(procs); !reflect.DeepEqual(ref, got) {
			t.Fatalf("GOMAXPROCS=%d produced a different dataset", procs)
		}
	}
}

func TestShuffleThreadsRunBoundaries(t *testing.T) {
	// Each input partition arrives at the reducer as one run (below the
	// chunking threshold), in input-partition order, and keeps its
	// RunKey order.
	c := NewCluster(Config{Machines: 4})
	in := NewDataset(kvSchema(), 4)
	in.Append(0, []Row{{temporal.Int(1), temporal.Int(10)}, {temporal.Int(2), temporal.Int(20)}})
	in.Append(1, []Row{{temporal.Int(3), temporal.Int(30)}})
	// partition 2 stays empty: empty partitions contribute no run
	in.Append(3, []Row{{temporal.Int(4), temporal.Int(40)}, {temporal.Int(5), temporal.Int(50)}, {temporal.Int(6), temporal.Int(60)}})
	c.FS.Write("in", in)
	var gotRuns []int
	var gotRows []Row
	st := Stage{
		Name: "runs", Inputs: []string{"in"}, Output: "out", OutSchema: kvSchema(),
		NumPartitions: 1,
		RunKey:        func(r Row, src int) int64 { return r[1].AsInt() },
		Reduce: func(part int, in [][]Segment, emit func(Row)) error {
			for i := range in[0] {
				if !in[0][i].Sorted() {
					t.Errorf("run %d not marked sorted", i)
				}
				gotRuns = append(gotRuns, in[0][i].Len())
			}
			rows, err := Materialize(in)
			if err != nil {
				return err
			}
			gotRows = rows[0]
			return nil
		},
	}
	if _, err := c.Run(st); err != nil {
		t.Fatal(err)
	}
	if want := []int{2, 1, 3}; !reflect.DeepEqual(gotRuns, want) {
		t.Fatalf("runs = %v, want %v", gotRuns, want)
	}
	if !reflect.DeepEqual(gotRows, in.Flatten()) {
		t.Fatalf("reducer input order differs from input-partition order")
	}
}

func TestMapChunkingSplitsLargePartitions(t *testing.T) {
	// A partition larger than mapChunkRows must become several map tasks,
	// several runs — and still shuffle in the original order.
	n := mapChunkRows + mapChunkRows/2
	rows := kvRows(n)
	c := NewCluster(Config{Machines: 4})
	c.FS.Write("in", SinglePartition(kvSchema(), rows))
	var gotRuns []int
	st := Stage{
		Name: "chunks", Inputs: []string{"in"}, Output: "out", OutSchema: kvSchema(),
		NumPartitions: 1,
		Reduce: func(part int, in [][]Segment, emit func(Row)) error {
			gotRuns = gotRuns[:0]
			for i := range in[0] {
				gotRuns = append(gotRuns, in[0][i].Len())
			}
			rows, err := Materialize(in)
			if err != nil {
				return err
			}
			for _, r := range rows[0] {
				emit(r)
			}
			return nil
		},
	}
	stat, err := c.Run(st)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{mapChunkRows, mapChunkRows / 2}; !reflect.DeepEqual(gotRuns, want) {
		t.Fatalf("runs = %v, want %v", gotRuns, want)
	}
	if got := len(stat.Stages[0].Maps); got != 2 {
		t.Fatalf("map tasks = %d, want 2", got)
	}
	if !reflect.DeepEqual(c.FS.MustRead("out").Flatten(), rows) {
		t.Fatal("chunked shuffle reordered rows")
	}
}

func TestParallelMapSpeedup(t *testing.T) {
	// The tentpole claim: >= 2x wall-clock on the map phase at 1M rows
	// with 4+ cores. Only measurable where real parallelism exists; the
	// byte-identity of the two paths is checked unconditionally above.
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("needs GOMAXPROCS >= 4 (have %d)", runtime.GOMAXPROCS(0))
	}
	if testing.Short() {
		t.Skip("1M-row timing test")
	}
	ds, _ := benchShuffleInput()
	st := Stage{
		Name: "speedup", Inputs: []string{"in"}, Output: "out", OutSchema: ds.Schema,
		NumPartitions: 64,
		PartitionCols: [][]int{{0, 2}},
		Reduce:        func(part int, in [][]Segment, emit func(Row)) error { return nil },
	}
	wall := func(workers int) time.Duration {
		best := time.Duration(1<<62 - 1)
		for i := 0; i < 3; i++ {
			c := NewCluster(Config{Machines: 64, MapWorkers: workers})
			c.FS.Write("in", ds)
			t0 := time.Now()
			if _, err := c.Run(st); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}
	serial, parallel := wall(1), wall(0)
	t.Logf("serial %v, parallel %v (%.2fx)", serial, parallel, float64(serial)/float64(parallel))
	if float64(serial) < 2*float64(parallel) {
		t.Errorf("parallel map %.2fx over serial, want >= 2x", float64(serial)/float64(parallel))
	}
}

func TestMakespanEdgeCases(t *testing.T) {
	// Zero tasks: only the shuffle charge remains.
	empty := &StageStat{ShuffleRows: 1000}
	if got, want := empty.Makespan(10, time.Microsecond), 100*time.Microsecond; got != want {
		t.Errorf("shuffle-only makespan = %v, want %v", got, want)
	}
	// m <= 0 clamps to one machine.
	one := &StageStat{Tasks: []TaskStat{{Duration: time.Second}, {Duration: time.Second}}}
	if got, want := one.Makespan(0, 0), 2*time.Second; got != want {
		t.Errorf("m=0 makespan = %v, want %v", got, want)
	}
	// One machine serializes everything, including the map phase.
	full := &StageStat{
		Maps:  []TaskStat{{Duration: 100 * time.Millisecond}, {Duration: 200 * time.Millisecond}},
		Tasks: []TaskStat{{Duration: time.Second}, {Duration: 2 * time.Second}},
	}
	if got, want := full.Makespan(1, 0), 3300*time.Millisecond; got != want {
		t.Errorf("1-machine makespan = %v, want %v", got, want)
	}
	// Two machines: map LPT = 200ms, reduce LPT = 2s; phases are barriers.
	if got, want := full.Makespan(2, 0), 2200*time.Millisecond; got != want {
		t.Errorf("2-machine makespan = %v, want %v", got, want)
	}
	// Retry-heavy: a single task dominated by retries gates the stage on
	// any machine count.
	retry := &StageStat{Tasks: []TaskStat{
		{Duration: 10 * time.Millisecond, RetryTime: 5 * time.Second},
		{Duration: 20 * time.Millisecond},
		{Duration: 30 * time.Millisecond},
	}}
	if got := retry.Makespan(3, 0); got < 5*time.Second {
		t.Errorf("retry-heavy makespan = %v, want >= 5s", got)
	}
}

func TestRowSkewEdgeCases(t *testing.T) {
	if got := (&StageStat{}).RowSkew(); got != 0 {
		t.Errorf("skew of empty stage = %v, want 0", got)
	}
	zeroRows := &StageStat{Tasks: []TaskStat{{Rows: 0}, {Rows: 0}}}
	if got := zeroRows.RowSkew(); got != 0 {
		t.Errorf("skew with zero mean = %v, want 0", got)
	}
	balanced := &StageStat{Tasks: []TaskStat{{Rows: 10}, {Rows: 10}, {Rows: 10}}}
	if got := balanced.RowSkew(); got != 1.0 {
		t.Errorf("balanced skew = %v, want 1.0", got)
	}
	skewed := &StageStat{Tasks: []TaskStat{{Rows: 30}, {Rows: 0}, {Rows: 0}}}
	if got := skewed.RowSkew(); got != 3.0 {
		t.Errorf("skewed RowSkew = %v, want 3.0", got)
	}
}

func TestMapPhaseAccounting(t *testing.T) {
	c := NewCluster(Config{Machines: 4})
	c.FS.Write("in", multiPartitionInput(3, 100))
	stat, err := c.Run(sumStage("in", "out", 4))
	if err != nil {
		t.Fatal(err)
	}
	st := stat.Stages[0]
	if got, want := len(st.Maps), 3; got != want {
		t.Fatalf("map tasks = %d, want %d (one per input partition)", got, want)
	}
	rows := 0
	for _, m := range st.Maps {
		if m.Attempts != 1 || m.RetryTime != 0 {
			t.Errorf("map task %+v: maps never retry", m)
		}
		rows += m.Rows
	}
	if rows != st.InputRows || rows != 300 {
		t.Errorf("map rows = %d, InputRows = %d, want 300", rows, st.InputRows)
	}
	if st.TotalMapTime() <= 0 {
		t.Error("TotalMapTime must be positive after a real run")
	}
}
