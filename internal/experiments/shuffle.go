package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"timr/internal/mapreduce"
	"timr/internal/temporal"
)

// Shuffle measures the simulator's parallel map/shuffle path against the
// serial reference (MapWorkers=1) on a synthetic repartitioning job, and
// checks the two produce identical datasets — the determinism contract
// that makes the parallel path safe for TiMR's repeatability guarantee.
// Wall-clock speedup tracks the host's core count; on a single-core host
// the rows are the same and only the accounting differs.
func Shuffle(c *Context) (*Table, error) {
	const totalRows = 1 << 18
	const inParts = 8
	schema := temporal.NewSchema(
		temporal.Field{Name: "K", Kind: temporal.KindInt},
		temporal.Field{Name: "V", Kind: temporal.KindInt},
		temporal.Field{Name: "Tag", Kind: temporal.KindString},
	)
	ds := mapreduce.NewDataset(schema, inParts)
	v := 0
	for p := 0; p < inParts; p++ {
		rows := make([]mapreduce.Row, totalRows/inParts)
		for i := range rows {
			rows[i] = mapreduce.Row{
				temporal.Int(int64(v % 4096)),
				temporal.Int(int64(v)),
				temporal.String(fmt.Sprintf("user-%07d", v%50000)),
			}
			v++
		}
		ds.Append(p, rows)
	}
	st := mapreduce.Stage{
		Name: "repartition", Inputs: []string{"in"}, Output: "out", OutSchema: schema,
		NumPartitions: 64,
		PartitionCols: [][]int{{0, 2}},
		Reduce: func(part int, segs [][]mapreduce.Segment, emit func(mapreduce.Row)) error {
			in, err := mapreduce.Materialize(segs)
			if err != nil {
				return err
			}
			for _, r := range in[0] {
				emit(r)
			}
			return nil
		},
	}
	runOnce := func(workers int) (time.Duration, *mapreduce.StageStat, *mapreduce.Dataset, error) {
		cl := mapreduce.NewCluster(mapreduce.Config{Machines: c.Opt.Machines, MapWorkers: workers})
		cl.FS.Write("in", ds)
		start := time.Now()
		stat, err := cl.Run(st)
		if err != nil {
			return 0, nil, nil, err
		}
		return time.Since(start), &stat.Stages[0], cl.FS.MustRead("out"), nil
	}
	// Best of three timed runs per path: the simulation is fast enough
	// that scheduler and GC noise would otherwise dominate the comparison.
	run := func(workers int) (time.Duration, *mapreduce.StageStat, *mapreduce.Dataset, error) {
		var bestWall time.Duration
		var bestStat *mapreduce.StageStat
		var bestOut *mapreduce.Dataset
		for i := 0; i < 3; i++ {
			wall, stat, out, err := runOnce(workers)
			if err != nil {
				return 0, nil, nil, err
			}
			if bestStat == nil || wall < bestWall {
				bestWall, bestStat, bestOut = wall, stat, out
			}
		}
		return bestWall, bestStat, bestOut, nil
	}

	serialWall, serialStat, serialOut, err := run(1)
	if err != nil {
		return nil, err
	}
	parWall, parStat, parOut, err := run(0)
	if err != nil {
		return nil, err
	}
	identical := reflect.DeepEqual(serialOut, parOut)

	t := &Table{
		Title:  "Parallel shuffle: map-phase fan-out vs serial reference (256k rows)",
		Header: []string{"path", "map tasks", "map time (sum)", "wall time", "output identical"},
	}
	t.AddRow("serial (MapWorkers=1)",
		fmt.Sprintf("%d", len(serialStat.Maps)),
		serialStat.TotalMapTime().Round(time.Microsecond).String(),
		serialWall.Round(time.Microsecond).String(), "-")
	t.AddRow(fmt.Sprintf("parallel (GOMAXPROCS=%d)", runtime.GOMAXPROCS(0)),
		fmt.Sprintf("%d", len(parStat.Maps)),
		parStat.TotalMapTime().Round(time.Microsecond).String(),
		parWall.Round(time.Microsecond).String(),
		fmt.Sprintf("%v", identical))
	t.AddRow("speedup", "-", "-",
		fmt.Sprintf("%.2fx", float64(serialWall)/float64(parWall)), "-")
	t.AddNote("Shuffled row order is deterministic by construction: per-task buckets are concatenated in (input, partition, chunk) order.")
	if !identical {
		return t, fmt.Errorf("parallel shuffle diverged from serial reference")
	}
	return t, nil
}
