package mapreduce

import (
	"reflect"
	"sync/atomic"
	"testing"

	"timr/internal/temporal"
)

func columnarTestSchema() *Schema {
	return temporal.NewSchema(
		temporal.Field{Name: "T", Kind: temporal.KindInt},
		temporal.Field{Name: "K", Kind: temporal.KindInt},
		temporal.Field{Name: "U", Kind: temporal.KindString},
	)
}

// columnarTestRows is time-ordered on column 0 (the run key), keyed on
// column 1, with a dictionary-friendly string column 2.
func columnarTestRows(n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{
			temporal.Int(int64(i)),
			temporal.Int(int64(i % 13)),
			temporal.String([]string{"adv-a", "adv-b", "adv-c"}[i%3]),
		}
	}
	return rows
}

// columnarStage partitions by K with the declared-columns fast path and
// emits every input row verbatim in segment order — so output bytes pin
// routing, run order, and run sortedness, not just multiset equality.
func columnarStage(in, out string, nparts int) Stage {
	return Stage{
		Name: "colshuffle", Inputs: []string{in}, Output: out, OutSchema: columnarTestSchema(),
		NumPartitions: nparts,
		PartitionCols: [][]int{{1}},
		RunKey:        func(r Row, src int) int64 { return r[0].AsInt() },
		RunKeyCols:    []int{0},
		Reduce: func(part int, in [][]Segment, emit func(Row)) error {
			for _, segs := range in {
				rd := NewRowReader(segs...)
				for {
					r, ok, err := rd.Next()
					if err != nil {
						return err
					}
					if !ok {
						break
					}
					emit(r)
				}
			}
			return nil
		},
	}
}

// TestColumnarInputMatchesRowInput pins the tentpole equivalence: a
// stage fed the same data as a columnar batch and as plain rows emits
// bit-identical output, across resident, partially spilled, and
// fully spilled budgets, serial and parallel map phases.
func TestColumnarInputMatchesRowInput(t *testing.T) {
	rows := columnarTestRows(5000)
	run := func(columnar bool, budget int64, workers int) ([]Row, *JobStat) {
		c := NewCluster(Config{Machines: 4, MemoryBudget: budget, MapWorkers: workers})
		defer c.Close()
		if columnar {
			cb := temporal.ColBatchFromRows(rows, 3)
			c.FS.Write("in", SingleColumnarPartition(columnarTestSchema(), cb, true))
		} else {
			c.FS.Write("in", SinglePartition(columnarTestSchema(), rows))
		}
		stat, err := c.Run(columnarStage("in", "out", 4))
		if err != nil {
			t.Fatal(err)
		}
		return c.FS.MustRead("out").Flatten(), stat
	}
	want, _ := run(false, 0, 1)
	if len(want) != len(rows) {
		t.Fatalf("reference emitted %d rows, want %d", len(want), len(rows))
	}
	for _, budget := range []int64{0, 512, SpillAll} {
		for _, workers := range []int{1, 4} {
			got, _ := run(true, budget, workers)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("columnar budget=%d workers=%d differs from resident row run", budget, workers)
			}
			gotRows, _ := run(false, budget, workers)
			if !reflect.DeepEqual(gotRows, want) {
				t.Fatalf("row budget=%d workers=%d differs from resident row run", budget, workers)
			}
		}
	}
}

// TestColumnarFastPathSortednessAnnotation checks the columnar map path
// annotates run sortedness from the run-key column exactly like the row
// path does from the RunKey closure.
func TestColumnarFastPathSortednessAnnotation(t *testing.T) {
	ordered := columnarTestRows(300)
	reversed := make([]Row, len(ordered))
	for i := range ordered {
		reversed[i] = ordered[len(ordered)-1-i]
	}
	run := func(rows []Row) (sorted, total int64) {
		c := NewCluster(Config{Machines: 2, MemoryBudget: SpillAll})
		defer c.Close()
		cb := temporal.ColBatchFromRows(rows, 3)
		c.FS.Write("in", SingleColumnarPartition(columnarTestSchema(), cb, true))
		st := columnarStage("in", "out", 2)
		// The two partitions' reducers run concurrently.
		var nSorted, nTotal atomic.Int64
		st.Reduce = func(part int, in [][]Segment, emit func(Row)) error {
			for _, segs := range in {
				for i := range segs {
					nTotal.Add(1)
					if segs[i].Sorted() {
						nSorted.Add(1)
					}
				}
			}
			return nil
		}
		if _, err := c.Run(st); err != nil {
			t.Fatal(err)
		}
		return nSorted.Load(), nTotal.Load()
	}
	if sorted, total := run(ordered); total == 0 || sorted != total {
		t.Fatalf("ordered columnar input: %d/%d runs marked sorted", sorted, total)
	}
	if sorted, total := run(reversed); total == 0 || sorted != 0 {
		t.Fatalf("reversed columnar input: %d/%d runs marked sorted", sorted, total)
	}
}
