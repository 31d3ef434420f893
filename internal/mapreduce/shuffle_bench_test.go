package mapreduce

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"timr/internal/temporal"
)

// The shuffle benchmark proves the tentpole win: partitioning 1M+ rows
// through the columnar fast path (decode-once ingest, vectorized
// hashing and byte accounting, index-gather routing) must beat the
// row-at-a-time carrier by >= 2x, while producing byte-identical
// shuffled datasets (pinned by TestColumnarInputMatchesRowInput and
// TestParallelMapByteIdenticalToSerial).

const benchShuffleRows = 1 << 20 // ~1M rows

var (
	shuffleBenchOnce  sync.Once
	shuffleBenchRowDS *Dataset
	shuffleBenchColDS *Dataset
)

// benchShuffleInput builds ~1M rows with a string column (realistic
// per-row hashing and byte-accounting cost), spread over 16 input
// partitions so the map phase has tasks to fan out — once as plain row
// segments and once as columnar batches (the ingest shape a real log
// reader produces after its single decode).
func benchShuffleInput() (rowDS, colDS *Dataset) {
	shuffleBenchOnce.Do(func() {
		schema := temporal.NewSchema(
			temporal.Field{Name: "K", Kind: temporal.KindInt},
			temporal.Field{Name: "V", Kind: temporal.KindInt},
			temporal.Field{Name: "Tag", Kind: temporal.KindString},
		)
		const inParts = 16
		per := benchShuffleRows / inParts
		rds := NewDataset(schema, inParts)
		cds := NewDataset(schema, inParts)
		v := 0
		for p := 0; p < inParts; p++ {
			rows := make([]Row, per)
			for i := range rows {
				rows[i] = Row{
					temporal.Int(int64(v % 4096)),
					temporal.Int(int64(v)),
					temporal.String(fmt.Sprintf("user-%07d", v%100000)),
				}
				v++
			}
			rds.Append(p, rows)
			cds.AppendColumnar(p, temporal.ColBatchFromRows(rows, 3), false)
		}
		shuffleBenchRowDS = rds
		shuffleBenchColDS = cds
	})
	return shuffleBenchRowDS, shuffleBenchColDS
}

func benchShuffleStage(schema *Schema) Stage {
	// A no-op reducer: the benchmark isolates the map/shuffle path, and
	// the shuffle's batches are not materialized just to be discarded.
	return Stage{
		Name: "shuffle", Inputs: []string{"in"}, Output: "out", OutSchema: schema,
		NumPartitions: 64,
		PartitionCols: [][]int{{0, 2}},
		Reduce:        func(part int, in [][]Segment, emit func(Row)) error { return nil },
	}
}

func benchShuffle(b *testing.B, mapWorkers int, columnar bool) {
	rowDS, colDS := benchShuffleInput()
	ds := rowDS
	if columnar {
		ds = colDS
	}
	st := benchShuffleStage(ds.Schema)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCluster(Config{Machines: 64, MapWorkers: mapWorkers})
		c.FS.Write("in", ds)
		if _, err := c.Run(st); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ds.Rows())*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkShuffle_1M_Serial(b *testing.B)   { benchShuffle(b, 1, true) }
func BenchmarkShuffle_1M_Parallel(b *testing.B) { benchShuffle(b, 0, true) }
func BenchmarkShuffle_1M_RowPath(b *testing.B)  { benchShuffle(b, 0, false) }

// benchSpill runs the same 1M-row repartition but with a reducer that
// consumes its input (summing an int column), so a spilling run pays
// both the encode/write and the streamed read-back — the end-to-end
// out-of-core cost against the resident reference. Columnar runs read
// the column straight off each shuffle batch; row runs stream rows.
func benchSpill(b *testing.B, budget int64, columnar bool) {
	rowDS, colDS := benchShuffleInput()
	ds := rowDS
	if columnar {
		ds = colDS
	}
	st := benchShuffleStage(ds.Schema)
	st.Name = "spill"
	var sum int64 // reducers run concurrently; accumulate atomically
	st.Reduce = func(part int, in [][]Segment, emit func(Row)) error {
		var local int64
		for i := range in[0] {
			seg := &in[0][i]
			if cb, err := seg.ColBatch(); err != nil {
				return err
			} else if cb != nil {
				if vs := cb.IntCol(1); vs != nil {
					for _, v := range vs {
						local += v
					}
					continue
				}
			}
			rd := NewRowReader(*seg)
			for {
				r, ok, err := rd.Next()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				local += r[1].AsInt()
			}
		}
		atomic.AddInt64(&sum, local)
		return nil
	}
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCluster(Config{Machines: 64, MemoryBudget: budget, SpillDir: dir})
		c.FS.Write("in", ds)
		if _, err := c.Run(st); err != nil {
			b.Fatal(err)
		}
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
	}
	if sum == 0 {
		b.Fatal("reducer consumed nothing")
	}
	b.ReportMetric(float64(ds.Rows())*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkSpill_1M_Resident(b *testing.B) { benchSpill(b, 0, true) }
func BenchmarkSpill_1M_SpillAll(b *testing.B) { benchSpill(b, SpillAll, true) }
func BenchmarkSpill_1M_RowPath(b *testing.B)  { benchSpill(b, 0, false) }
