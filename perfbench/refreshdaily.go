package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"timr/internal/bt"
	"timr/internal/dur"
	"timr/internal/temporal"
	"timr/internal/workload"
)

// refresh_daily has the shape of `timr refresh -retain -durdir`: a
// 7-day log ingested one day at a time by a refresher in auto mode that
// retains raw history, committing every day to a durable store in a
// fresh directory on the real filesystem. A pass ingests all 7 days;
// passes repeat while the window is open.

const (
	refreshUsers    = 1000
	refreshKeywords = 2000
	refreshAds      = 8
	refreshDays     = 7
)

// ingest is one IngestDay as measured from outside.
type ingest struct {
	wall                 time.Duration
	front, counts, model time.Duration
	frontRows, dayRows   int64
	delta                bool
	storeBytes           int64
	commitFailed         bool
}

func runRefreshDaily(o options) (*report, error) {
	tr := newTracer(o.trace)
	rep := &report{values: map[string]float64{}}
	wcfg := workload.Config{Users: refreshUsers, Keywords: refreshKeywords, AdClasses: refreshAds, Days: refreshDays, Seed: o.seed}
	p := bt.DefaultParams()
	p.TrainPeriod = temporal.Day

	var d *workload.Dataset
	gens, err := setUp(tr, "workload.gen", func() error {
		d = workload.Generate(wcfg)
		return nil
	})
	if err != nil {
		return nil, err
	}

	var ingests []ingest
	var passWalls, tracedWalls, untracedWalls []float64
	var final []byte
	settle(true)
	for w := newWindow(o.seconds); w.open(); {
		settle(false)
		// A traced run alternates traced and untraced passes, so the
		// tracing overhead is measured within the run.
		pt := tr
		if o.trace && len(passWalls)%2 == 1 {
			pt = newTracer(false)
		}
		tr.run = len(passWalls) + 1
		start := time.Now()
		got, state, err := refreshPass(o.out, p, wcfg, d, pt, &rep.ops)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start).Seconds()
		passWalls = append(passWalls, wall)
		if pt == tr {
			tracedWalls = append(tracedWalls, wall)
		} else {
			untracedWalls = append(untracedWalls, wall)
		}
		ingests = append(ingests, got...)
		final = state
	}
	rssMB := peakRSSMB()

	// Correctness, outside the timed passes: the final state must equal
	// a full recompute over all 7 days of raw history.
	ref, err := fullRecompute(p, wcfg, d)
	if err != nil {
		return nil, err
	}
	rep.correct = final != nil && bytes.Equal(final, ref)
	if !rep.correct {
		fmt.Fprintf(os.Stderr, "perfbench: refresh state (%d bytes) differs from a full recompute (%d bytes)\n", len(final), len(ref))
	}

	walls := make([]float64, len(ingests))
	for i, in := range ingests {
		walls[i] = in.wall.Seconds()
	}
	med := median(walls)
	tailS, q := tail(walls)
	fmt.Fprintf(os.Stderr, "perfbench: %d passes, %d ingests; tail percentile p%g over %d\n",
		len(passWalls), len(ingests), q*100, len(walls))
	rep.setEndToEnd(gens, rssMB, median(passWalls), len(d.Rows), med, tailS)

	if o.trace {
		refreshLayers(rep.values, ingests)
		rep.values["workload.gen_s"] = median(gens)
		if len(tracedWalls) > 0 && len(untracedWalls) > 0 {
			rep.values["trace.overhead_ratio"] = median(tracedWalls) / median(untracedWalls)
		}
		rep.spans = tr.spans
	}
	return rep, nil
}

// refreshLayers sets the per-layer metrics as means per ingest, so that
// front, counts, model and rest add up to the mean ingest time.
func refreshLayers(values map[string]float64, ingests []ingest) {
	var wall, front, counts, model time.Duration
	var frontRows, dayRows, storeBytes int64
	deltas, failures := 0, 0
	for _, in := range ingests {
		wall += in.wall
		front += in.front
		counts += in.counts
		model += in.model
		frontRows += in.frontRows
		dayRows += in.dayRows
		storeBytes += in.storeBytes
		if in.delta {
			deltas++
		}
		if in.commitFailed {
			failures++
		}
	}
	n := float64(len(ingests))
	values["bt.refresh.front_s"] = front.Seconds() / n
	values["bt.refresh.counts_s"] = counts.Seconds() / n
	values["bt.refresh.model_s"] = model.Seconds() / n
	values["bt.refresh.rest_s"] = (wall - front - counts - model).Seconds() / n
	values["bt.refresh.recompute_ratio"] = float64(frontRows) / float64(dayRows)
	values["bt.refresh.delta_share"] = float64(deltas) / n
	values["dur.mb_per_day"] = float64(storeBytes) / n / (1 << 20)
	values["dur.commit_failures"] = float64(failures)
}

// refreshPass ingests every day of the log into a new refresher backed
// by a durable store in a fresh directory, and returns each ingest's
// measurements and the final state's summary bytes.
func refreshPass(out string, p bt.Params, wcfg workload.Config, d *workload.Dataset, tr *tracer, ops *opCount) ([]ingest, []byte, error) {
	dir, err := os.MkdirTemp(out, "refresh-store-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	store, err := dur.OpenStore(dir, dur.Options{})
	if err != nil {
		return nil, nil, err
	}
	r := bt.NewRefresher(p, wcfg, bt.RefreshOptions{Mode: bt.ModeAuto, RetainHistory: true, Store: store})
	seen := map[string]bool{}
	var got []ingest
	root := tr.begin("bt.refresh.pass", -1)
	for day := 0; day < refreshDays; day++ {
		rows := d.DayRows(day)
		id := tr.begin("bt.refresh.ingest", root)
		start := time.Now()
		err := r.IngestDay(rows, temporal.Time(day+1)*temporal.Day)
		in := ingest{wall: time.Since(start), dayRows: int64(len(rows))}
		tr.end(id)
		if err == nil && r.DurErr != nil {
			err = fmt.Errorf("day %d commit: %w", day, r.DurErr)
			in.commitFailed = true
		}
		ops.record(err)
		if err != nil {
			tr.end(root)
			return nil, nil, fmt.Errorf("refresh day %d: %w", day, err)
		}
		in.delta = r.LastDelta
		for _, t := range r.State.Timings {
			switch t.Stage {
			case "Front":
				in.front, in.frontRows = time.Duration(t.Ns), t.Rows
			case "Counts":
				in.counts = time.Duration(t.Ns)
			case "Model":
				in.model = time.Duration(t.Ns)
			}
		}
		if in.storeBytes, err = newFileBytes(dir, seen); err != nil {
			return nil, nil, err
		}
		got = append(got, in)
	}
	tr.end(root)
	final, err := r.State.SummaryBytes()
	return got, final, err
}

// newFileBytes sums the sizes of the files in dir not seen before and
// marks them seen: the bytes the store wrote since the last call.
func newFileBytes(dir string, seen map[string]bool) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		if seen[e.Name()] || e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		seen[e.Name()] = true
		n += info.Size()
	}
	return n, nil
}

// fullRecompute builds the reference state: six delta days, then a full
// recompute of the whole state from all 7 days of raw history.
func fullRecompute(p bt.Params, wcfg workload.Config, d *workload.Dataset) ([]byte, error) {
	r := bt.NewRefresher(p, wcfg, bt.RefreshOptions{Mode: bt.ModeDelta, RetainHistory: true})
	for day := 0; day < refreshDays; day++ {
		if day == refreshDays-1 {
			r.Opts.Mode = bt.ModeFull
		}
		if err := r.IngestDay(d.DayRows(day), temporal.Time(day+1)*temporal.Day); err != nil {
			return nil, fmt.Errorf("reference day %d: %w", day, err)
		}
	}
	if r.LastDelta {
		return nil, fmt.Errorf("reference: last day did not recompute in full")
	}
	return r.State.SummaryBytes()
}
