package mapreduce

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"timr/internal/temporal"
)

func spillTestRows(n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{
			temporal.Int(int64(i)),
			temporal.Float(float64(i) * 1.5),
			temporal.String("payload"),
			temporal.Bool(i%2 == 0),
		}
	}
	return rows
}

func TestSpilledSegmentRoundtrip(t *testing.T) {
	rows := spillTestRows(137)
	seg, release, err := SpillRows(t.TempDir(), rows, true)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if !seg.Spilled() || !seg.Sorted() || seg.Len() != len(rows) {
		t.Fatalf("segment meta: spilled=%v sorted=%v len=%d", seg.Spilled(), seg.Sorted(), seg.Len())
	}
	got, err := seg.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatal("spill roundtrip changed rows")
	}
	// Reader path must deliver the same sequence.
	rd := seg.Open()
	for i := 0; ; i++ {
		r, ok, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if i != len(rows) {
				t.Fatalf("reader stopped at %d of %d", i, len(rows))
			}
			break
		}
		if !reflect.DeepEqual(r, rows[i]) {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

func TestRowReaderMixedSegments(t *testing.T) {
	a := spillTestRows(10)
	b := spillTestRows(7)
	seg, release, err := SpillRows(t.TempDir(), b, false)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	rd := NewRowReader(ResidentSegment(a, false), seg, ResidentSegment(a[:3], false))
	want := append(append(append([]Row{}, a...), b...), a[:3]...)
	var got []Row
	for {
		r, ok, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, r)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("mixed-segment reader order mismatch")
	}
}

// budgetJob is a two-stage job (repartition by key, then funnel to one
// partition) so a spilled stage-1 output becomes spilled *input* to
// stage 2's map phase.
func budgetJob(c *Cluster, t *testing.T) *JobStat {
	t.Helper()
	stat, err := c.Run(
		sumStage("in", "mid", 8),
		identityStage("mid", "out"),
	)
	if err != nil {
		t.Fatal(err)
	}
	return stat
}

func TestMemoryBudgetOutputEquivalence(t *testing.T) {
	// The core out-of-core contract: job output is bit-identical whether
	// nothing, something, or everything spills.
	rows := kvRows(5000)
	run := func(budget int64) ([]Row, *JobStat) {
		c := NewCluster(Config{Machines: 8, MemoryBudget: budget})
		defer c.Close()
		c.FS.Write("in", SinglePartition(kvSchema(), rows))
		stat := budgetJob(c, t)
		return append([]Row(nil), c.FS.MustRead("out").Flatten()...), stat
	}
	want, residentStat := run(0)
	if len(want) == 0 {
		t.Fatal("empty reference output")
	}
	if residentStat.Stages[0].SpillSegments != 0 {
		t.Fatalf("unlimited budget spilled %d segments", residentStat.Stages[0].SpillSegments)
	}
	for _, budget := range []int64{SpillAll, 1, 512, 16 << 10} {
		got, stat := run(budget)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("budget=%d output differs from resident run", budget)
		}
		if budget == SpillAll || budget == 1 {
			spilled := 0
			for _, st := range stat.Stages {
				spilled += st.SpillSegments
			}
			if spilled == 0 {
				t.Fatalf("budget=%d: expected spill activity", budget)
			}
		}
	}
}

func TestSpillMetricsAccounting(t *testing.T) {
	c := NewCluster(Config{Machines: 4, MemoryBudget: SpillAll})
	defer c.Close()
	c.FS.Write("in", SinglePartition(kvSchema(), kvRows(1000)))
	stat := budgetJob(c, t)
	s1 := stat.Stages[0]
	if s1.SpillSegments == 0 || s1.SpillBytes == 0 {
		t.Fatalf("stage 1 spill write accounting empty: %+v", s1)
	}
	// Stage 1's reducers read its spilled shuffle runs back.
	if s1.SpillReadBytes == 0 {
		t.Fatal("stage 1 recorded no spill reads")
	}
	// Stage 2 reads stage 1's spilled output in its map phase.
	s2 := stat.Stages[1]
	if s2.SpillReadBytes == 0 {
		t.Fatal("stage 2 map phase read no spilled input")
	}
}

func TestSpillRunSortednessAnnotation(t *testing.T) {
	// With a RunKey, shuffle runs from a key-ordered input partition are
	// marked sorted; from a shuffled one, unsorted.
	sortedRows := kvRows(100) // kvRows is ordered by its second column
	unsorted := append([]Row(nil), sortedRows...)
	for i, j := 0, len(unsorted)-1; i < j; i, j = i+1, j-1 {
		unsorted[i], unsorted[j] = unsorted[j], unsorted[i]
	}
	run := func(rows []Row) (sortedSegs, totalSegs int) {
		c := NewCluster(Config{Machines: 2, MemoryBudget: SpillAll})
		defer c.Close()
		c.FS.Write("in", SinglePartition(kvSchema(), rows))
		st := Stage{
			Name: "runkey", Inputs: []string{"in"}, Output: "out", OutSchema: kvSchema(),
			NumPartitions: 1,
			RunKey:        func(r Row, src int) int64 { return r[1].AsInt() },
			Reduce: func(part int, in [][]Segment, emit func(Row)) error {
				for _, segs := range in {
					for i := range segs {
						totalSegs++
						if segs[i].Sorted() {
							sortedSegs++
						}
						if !segs[i].Spilled() {
							t.Error("SpillAll left a resident segment")
						}
					}
				}
				return nil
			},
		}
		if _, err := c.Run(st); err != nil {
			t.Fatal(err)
		}
		return sortedSegs, totalSegs
	}
	if sorted, total := run(sortedRows); total == 0 || sorted != total {
		t.Fatalf("ordered input: %d/%d runs marked sorted", sorted, total)
	}
	if sorted, total := run(unsorted); total == 0 || sorted != 0 {
		t.Fatalf("reversed input: %d/%d runs marked sorted", sorted, total)
	}
}

func TestClusterCloseRemovesSpillDir(t *testing.T) {
	base := t.TempDir()
	c := NewCluster(Config{Machines: 2, MemoryBudget: SpillAll, SpillDir: base})
	c.FS.Write("in", SinglePartition(kvSchema(), kvRows(100)))
	budgetJob(c, t)
	dirs, err := filepath.Glob(filepath.Join(base, "timr-spill-*"))
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no spill dir created under %s (err=%v)", base, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if _, err := os.Stat(d); !os.IsNotExist(err) {
			t.Fatalf("spill dir %s survived Close", d)
		}
	}
}

// TestFailedStageReleasesSpillFiles pins the temp-file leak fix: a
// stage that spills its shuffle and then fails (every reducer attempt
// exhausted) must leave nothing behind in the spill directory — the
// stage owns its files and releases them on the error path, not only on
// the success path.
func TestFailedStageReleasesSpillFiles(t *testing.T) {
	base := t.TempDir()
	c := NewCluster(Config{
		Machines: 2, MemoryBudget: SpillAll, SpillDir: base,
		FailureRate: 1.0, MaxAttempts: 2, Seed: 42,
	})
	defer c.Close()
	c.FS.Write("in", SinglePartition(kvSchema(), kvRows(500)))
	if _, err := c.Run(sumStage("in", "out", 4)); err == nil {
		t.Fatal("expected the fully-failing stage to error")
	}
	dirs, err := filepath.Glob(filepath.Join(base, "timr-spill-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("stage never spilled — the leak check is vacuous")
	}
	for _, d := range dirs {
		left, err := filepath.Glob(filepath.Join(d, "*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(left) != 0 {
			t.Fatalf("failed stage leaked %d spill file(s): %v", len(left), left)
		}
	}
}

// TestFlattenCopiesAndBorrowLends pins the satellite bugfix: Flatten
// and ReadAll hand back a slice the caller owns — mutating it must not
// corrupt the dataset — while Borrow is the explicit zero-copy variant
// for callers that promise immutability.
func TestFlattenCopiesAndBorrowLends(t *testing.T) {
	rows := kvRows(64)
	ds := SinglePartition(kvSchema(), rows)
	got := ds.Flatten()
	if len(got) != len(rows) || &got[0] == &rows[0] {
		t.Fatal("single-segment Flatten must copy the row-header slice")
	}
	// Mutating the returned slice must leave the dataset intact.
	for i := range got {
		got[i] = Row{temporal.String("clobbered")}
	}
	again := ds.Flatten()
	for i, r := range again {
		if len(r) != len(rows[i]) || !r[0].Equal(rows[i][0]) {
			t.Fatalf("row %d changed after mutating a Flatten result", i)
		}
	}
	// Borrow is the zero-copy path, single resident row segment only.
	lent, ok := ds.Borrow()
	if !ok || &lent[0] != &rows[0] {
		t.Fatal("Borrow must lend the underlying slice of a single resident segment")
	}
	ds2 := NewDataset(kvSchema(), 1)
	ds2.Append(0, rows[:32])
	ds2.Append(0, rows[32:])
	if _, ok := ds2.Borrow(); ok {
		t.Fatal("Borrow must refuse multi-segment datasets")
	}
	got2 := ds2.Flatten()
	if len(got2) != len(rows) || &got2[0] == &rows[0] {
		t.Fatal("multi-segment Flatten must build a fresh slice")
	}
	cds := SingleColumnarPartition(kvSchema(), temporal.ColBatchFromRows(rows, 2), false)
	if _, ok := cds.Borrow(); ok {
		t.Fatal("Borrow must refuse columnar datasets")
	}
	crows := cds.Flatten()
	if len(crows) != len(rows) {
		t.Fatalf("columnar Flatten returned %d rows, want %d", len(crows), len(rows))
	}
}

// BenchmarkFlattenResident pins the satellite claim: reading the common
// single-segment resident dataset through Borrow allocates nothing.
func BenchmarkFlattenResident(b *testing.B) {
	ds := SinglePartition(kvSchema(), kvRows(1<<16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, ok := ds.Borrow()
		if !ok || len(rows) != 1<<16 {
			b.Fatal("bad length")
		}
	}
}
