package baseline

import (
	"sort"

	"timr/internal/mapreduce"
	"timr/internal/ml"
	"timr/internal/temporal"
	"timr/internal/workload"
)

// This file is the paper's "custom reducers" alternative (§II-C, §V-B):
// every BT phase hand-written against raw rows, with bespoke in-memory
// data structures instead of declarative temporal queries. It produces
// bit-identical results to the CQ pipeline (the tests enforce it), which
// is exactly the paper's point: this took the most code and care of
// anything in this repository, is specific to these queries, makes
// multiple passes over the data, and cannot be reused over live streams.

// CustomParams mirrors bt.Params for the hand-written pipeline (duplicated
// here because a custom implementation would not share the framework's
// types — and so LoC comparisons stay honest).
type CustomParams struct {
	T1, T2      int64
	BotHop      temporal.Time
	Tau         temporal.Time
	D           temporal.Time
	TrainPeriod temporal.Time
	ZThreshold  float64
	ModelEpochs int
}

// ---------------------------------------------------------------------
// RunningClickCount (Example 1), the strawman's "practical alternative":
// partition by AdId and keep a linked-list window per ad.
// ---------------------------------------------------------------------

// CustomRunningClickCount processes one AdId partition: rows sorted by
// time, a FIFO window of click timestamps, one output per click with the
// refreshed count of clicks in (t-window, t].
func CustomRunningClickCount(rows []temporal.Row, window temporal.Time) []temporal.Row {
	sorted := append([]temporal.Row(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i][0].AsInt() < sorted[j][0].AsInt() })
	type entry struct{ t temporal.Time }
	perAd := make(map[int64][]entry) // ad -> FIFO of timestamps in window
	var out []temporal.Row
	for _, r := range sorted {
		t, ad := r[0].AsInt(), r[2].AsInt()
		q := perAd[ad]
		// Expire entries that left the window.
		lo := 0
		for lo < len(q) && q[lo].t <= t-window {
			lo++
		}
		q = append(q[lo:], entry{t})
		perAd[ad] = q
		out = append(out, temporal.Row{temporal.Int(t), temporal.Int(ad), temporal.Int(int64(len(q)))})
	}
	return out
}

// CustomRunningClickCountStage wraps the reducer for the M-R cluster,
// partitioned by AdId — the full strawman solution.
func CustomRunningClickCountStage(input, output string, window temporal.Time) mapreduce.Stage {
	outSchema := temporal.NewSchema(
		temporal.Field{Name: "Time", Kind: temporal.KindInt},
		temporal.Field{Name: "AdId", Kind: temporal.KindInt},
		temporal.Field{Name: "Count", Kind: temporal.KindInt},
	)
	return mapreduce.Stage{
		Name: "custom-rcc", Inputs: []string{input}, Output: output, OutSchema: outSchema,
		PartitionCols: [][]int{{2}},
		Reduce: wholePartition(func(in [][]mapreduce.Row, emit func(mapreduce.Row)) {
			for _, r := range CustomRunningClickCount(in[0], window) {
				emit(r)
			}
		}),
	}
}

// wholePartition adapts a hand-written reducer over whole row slices (one
// per source) to the cluster's segment-list contract.
func wholePartition(f func(in [][]mapreduce.Row, emit func(mapreduce.Row))) mapreduce.Reducer {
	return func(_ int, segs [][]mapreduce.Segment, emit func(mapreduce.Row)) error {
		in, err := mapreduce.Materialize(segs)
		if err != nil {
			return err
		}
		f(in, emit)
		return nil
	}
}

// ---------------------------------------------------------------------
// Custom BT phase 1: bot elimination.
// ---------------------------------------------------------------------

// userEvents is a user's activity split by stream, time-sorted.
type userEvents struct {
	all      []temporal.Row
	clicks   []temporal.Time
	searches []temporal.Time
}

func groupByUser(rows []temporal.Row) map[int64]*userEvents {
	users := make(map[int64]*userEvents)
	for _, r := range rows {
		u := r[2].AsInt()
		ue := users[u]
		if ue == nil {
			ue = &userEvents{}
			users[u] = ue
		}
		ue.all = append(ue.all, r)
		switch r[1].AsInt() {
		case workload.StreamClick:
			ue.clicks = append(ue.clicks, r[0].AsInt())
		case workload.StreamKeyword:
			ue.searches = append(ue.searches, r[0].AsInt())
		}
	}
	for _, ue := range users {
		sort.SliceStable(ue.all, func(i, j int) bool { return ue.all[i][0].AsInt() < ue.all[j][0].AsInt() })
		sort.Slice(ue.clicks, func(i, j int) bool { return ue.clicks[i] < ue.clicks[j] })
		sort.Slice(ue.searches, func(i, j int) bool { return ue.searches[i] < ue.searches[j] })
	}
	return users
}

// countIn counts sorted timestamps in [lo, hi).
func countIn(ts []temporal.Time, lo, hi temporal.Time) int64 {
	a := sort.Search(len(ts), func(i int) bool { return ts[i] >= lo })
	b := sort.Search(len(ts), func(i int) bool { return ts[i] >= hi })
	return int64(b - a)
}

// CustomBotElim drops every event that falls inside a flagged bot
// interval: the user is a bot during [b, b+hop) when their clicks exceed
// T1 or searches exceed T2 within [b-τ, b), b a hop boundary.
func CustomBotElim(rows []temporal.Row, p CustomParams) []temporal.Row {
	users := groupByUser(rows)
	var out []temporal.Row
	for _, ue := range users {
		for _, r := range ue.all {
			t := r[0].AsInt()
			b := (t / p.BotHop) * p.BotHop // hop boundary owning t
			bot := countIn(ue.clicks, b-p.Tau, b) > p.T1 ||
				countIn(ue.searches, b-p.Tau, b) > p.T2
			if !bot {
				out = append(out, r)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i][0].AsInt() < out[j][0].AsInt() })
	return out
}

// ---------------------------------------------------------------------
// Custom BT phase 2: click / non-click labeling.
// ---------------------------------------------------------------------

// CustomLabel emits (Time, UserId, AdId, Clicked): clicks as-is, plus
// impressions with no same-user same-ad click in (t, t+d].
func CustomLabel(clean []temporal.Row, p CustomParams) []temporal.Row {
	type key struct{ user, ad int64 }
	clicks := make(map[key][]temporal.Time)
	for _, r := range clean {
		if r[1].AsInt() == workload.StreamClick {
			k := key{r[2].AsInt(), r[3].AsInt()}
			clicks[k] = append(clicks[k], r[0].AsInt())
		}
	}
	for _, ts := range clicks {
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	}
	var out []temporal.Row
	for _, r := range clean {
		t, u, ka := r[0].AsInt(), r[2].AsInt(), r[3].AsInt()
		switch r[1].AsInt() {
		case workload.StreamClick:
			out = append(out, temporal.Row{temporal.Int(t), temporal.Int(u), temporal.Int(ka), temporal.Int(1)})
		case workload.StreamImpression:
			if countIn(clicks[key{u, ka}], t+1, t+p.D+1) == 0 {
				out = append(out, temporal.Row{temporal.Int(t), temporal.Int(u), temporal.Int(ka), temporal.Int(0)})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i][0].AsInt() < out[j][0].AsInt() })
	return out
}

// ---------------------------------------------------------------------
// Custom BT phase 3: training-data generation (UBP join).
// ---------------------------------------------------------------------

// CustomTrainData emits one row per (labeled impression, profile keyword):
// (Time, UserId, AdId, Clicked, Keyword, KwCount) with KwCount the number
// of times the user searched the keyword in (t-τ, t].
func CustomTrainData(labeled, clean []temporal.Row, p CustomParams) []temporal.Row {
	// Per-user keyword searches, sorted.
	type ks struct {
		t  temporal.Time
		kw int64
	}
	perUser := make(map[int64][]ks)
	for _, r := range clean {
		if r[1].AsInt() == workload.StreamKeyword {
			u := r[2].AsInt()
			perUser[u] = append(perUser[u], ks{r[0].AsInt(), r[3].AsInt()})
		}
	}
	for _, s := range perUser {
		sort.SliceStable(s, func(i, j int) bool { return s[i].t < s[j].t })
	}
	// Per-user labeled impressions, sorted, then a sliding multiset.
	byUser := make(map[int64][]temporal.Row)
	for _, r := range labeled {
		u := r[1].AsInt()
		byUser[u] = append(byUser[u], r)
	}
	var out []temporal.Row
	for u, imps := range byUser {
		sort.SliceStable(imps, func(i, j int) bool { return imps[i][0].AsInt() < imps[j][0].AsInt() })
		searches := perUser[u]
		lo, hi := 0, 0
		window := make(map[int64]int64)
		for _, r := range imps {
			t := r[0].AsInt()
			for hi < len(searches) && searches[hi].t <= t {
				window[searches[hi].kw]++
				hi++
			}
			for lo < hi && searches[lo].t <= t-p.Tau {
				if window[searches[lo].kw]--; window[searches[lo].kw] == 0 {
					delete(window, searches[lo].kw)
				}
				lo++
			}
			kws := make([]int64, 0, len(window))
			for kw := range window {
				kws = append(kws, kw)
			}
			sort.Slice(kws, func(i, j int) bool { return kws[i] < kws[j] })
			for _, kw := range kws {
				out = append(out, temporal.Row{
					r[0], r[1], r[2], r[3], temporal.Int(kw), temporal.Int(window[kw]),
				})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i][0].AsInt() < out[j][0].AsInt() })
	return out
}

// ---------------------------------------------------------------------
// Custom BT phase 4: feature selection via the two-proportion z-test.
// ---------------------------------------------------------------------

// KeywordScore is one retained (ad, keyword) with its z-score, per
// tumbling TrainPeriod window.
type KeywordScore struct {
	AdID    int64
	Keyword int64
	Win     int64 // window index floor(Time / TrainPeriod)
	Z       float64
}

// CustomFeatureSelect aggregates clicks/non-clicks per ad and per
// (ad, keyword) within each tumbling TrainPeriod window and applies the
// z-test with the support floor, keeping |z| >= threshold.
func CustomFeatureSelect(labeled, train []temporal.Row, p CustomParams) []KeywordScore {
	type adWin struct {
		ad  int64
		win int64
	}
	type kwWin struct {
		ad, kw, win int64
	}
	adClicks := make(map[adWin]int64)
	adNon := make(map[adWin]int64)
	for _, r := range labeled {
		k := adWin{r[2].AsInt(), r[0].AsInt() / int64(p.TrainPeriod)}
		if r[3].AsInt() == 1 {
			adClicks[k]++
		} else {
			adNon[k]++
		}
	}
	kwClicks := make(map[kwWin]int64)
	kwNon := make(map[kwWin]int64)
	for _, r := range train {
		k := kwWin{r[2].AsInt(), r[4].AsInt(), r[0].AsInt() / int64(p.TrainPeriod)}
		if r[3].AsInt() == 1 {
			kwClicks[k]++
		} else {
			kwNon[k]++
		}
	}
	// Like the CQ plan's inner join of the two count streams (Figure 13),
	// a keyword is tested only when it has both clicks and non-clicks in
	// the window (the support floor would reject one-sided keywords
	// anyway).
	var out []KeywordScore
	for k, ck := range kwClicks {
		nk, ok := kwNon[k]
		if !ok {
			continue
		}
		ct := adClicks[adWin{k.ad, k.win}]
		nt := adNon[adWin{k.ad, k.win}]
		z, valid := twoProportionZ(ck, ck+nk, ct-ck, (ct+nt)-(ck+nk))
		if !valid || abs(z) < p.ZThreshold {
			continue
		}
		out = append(out, KeywordScore{AdID: k.ad, Keyword: k.kw, Win: k.win, Z: z})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.AdID != b.AdID {
			return a.AdID < b.AdID
		}
		if a.Keyword != b.Keyword {
			return a.Keyword < b.Keyword
		}
		return a.Win < b.Win
	})
	return out
}

// twoProportionZ is re-implemented here (rather than imported) for the
// same reason CustomParams exists: the custom pipeline carries its own
// copies of everything, as custom pipelines do.
func twoProportionZ(cw, iw, cwo, iwo int64) (float64, bool) {
	const minSupport = 5
	if cw < minSupport || iw < minSupport || cwo < minSupport || iwo < minSupport {
		return 0, false
	}
	p1 := float64(cw) / float64(iw)
	p2 := float64(cwo) / float64(iwo)
	v := p1*(1-p1)/float64(iw) + p2*(1-p2)/float64(iwo)
	if v <= 0 {
		return 0, false
	}
	return (p1 - p2) / sqrt(v), true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// sqrt by Newton's method — the custom pipeline's author avoided a math
// import for exactly as long as it took to write this.
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	g := x
	for i := 0; i < 64; i++ {
		g = (g + x/g) / 2
	}
	return g
}

// ---------------------------------------------------------------------
// Custom BT phase 5+6: reduction and per-ad model fitting.
// ---------------------------------------------------------------------

// CustomReduce filters training rows to the keywords retained in the
// row's own training window (matching the CQ ReducePlan, which shifts
// each window's scores back over the period they summarize).
func CustomReduce(train []temporal.Row, scores []KeywordScore, period temporal.Time) []temporal.Row {
	keep := make(map[[3]int64]bool, len(scores))
	for _, s := range scores {
		keep[[3]int64{s.AdID, s.Keyword, s.Win}] = true
	}
	var out []temporal.Row
	for _, r := range train {
		win := r[0].AsInt() / int64(period)
		if keep[[3]int64{r[2].AsInt(), r[4].AsInt(), win}] {
			out = append(out, r)
		}
	}
	return out
}

// CustomModels fits one LR model per ad from reduced training rows.
func CustomModels(reduced []temporal.Row, p CustomParams) map[int64]*ml.Model {
	byAd := make(map[int64][]temporal.Row)
	for _, r := range reduced {
		byAd[r[2].AsInt()] = append(byAd[r[2].AsInt()], r)
	}
	cfg := ml.DefaultLRConfig()
	if p.ModelEpochs > 0 {
		cfg.Epochs = p.ModelEpochs
	}
	models := make(map[int64]*ml.Model, len(byAd))
	for ad, rows := range byAd {
		models[ad] = ml.TrainLR(customExamples(rows), cfg)
	}
	return models
}

// customExamples groups sparse rows into per-impression examples.
func customExamples(rows []temporal.Row) []ml.Example {
	type key struct{ t, user int64 }
	idx := make(map[key]int)
	var out []ml.Example
	var order []key
	for _, r := range rows {
		k := key{r[0].AsInt(), r[1].AsInt()}
		i, ok := idx[k]
		if !ok {
			i = len(out)
			idx[k] = i
			order = append(order, k)
			out = append(out, ml.Example{Clicked: r[3].AsInt() == 1})
		}
		out[i].Features = append(out[i].Features, ml.Feature{
			ID: r[4].AsInt(), Val: float64(r[5].AsInt()),
		})
	}
	for i := range out {
		out[i].Features = ml.SortFeatures(out[i].Features)
	}
	_ = order
	return out
}

// CustomBTPipeline runs every custom phase in sequence, single-node —
// the end-to-end hand-written solution measured in Figure 14.
func CustomBTPipeline(rows []temporal.Row, p CustomParams) (clean, labeled, train []temporal.Row, scores []KeywordScore, models map[int64]*ml.Model) {
	clean = CustomBotElim(rows, p)
	labeled = CustomLabel(clean, p)
	train = CustomTrainData(labeled, clean, p)
	scores = CustomFeatureSelect(labeled, train, p)
	reduced := CustomReduce(train, scores, p.TrainPeriod)
	models = CustomModels(reduced, p)
	return clean, labeled, train, scores, models
}
