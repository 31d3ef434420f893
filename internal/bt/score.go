package bt

import (
	"sync"

	"timr/internal/ml"
	"timr/internal/stats"
	"timr/internal/temporal"
)

// ScoreSchemaOut is the output of ScorePlan: one prediction per scored
// impression.
var ScoreSchemaOut = temporal.NewSchema(
	temporal.Field{Name: "Time", Kind: temporal.KindInt},
	temporal.Field{Name: "UserId", Kind: temporal.KindInt},
	temporal.Field{Name: "AdId", Kind: temporal.KindInt},
	temporal.Field{Name: "Clicked", Kind: temporal.KindInt},
	temporal.Field{Name: "Score", Kind: temporal.KindFloat},
)

// ScorePlan closes the M3 loop (paper §IV-B.4): "The output model weights
// are lodged in the right synopsis of a TemporalJoin operator (for
// scoring), so we can generate a prediction whenever a new UBP is fed on
// its left input."
//
// Left input: per-impression sparse feature rows (SourceReduced, the
// TrainSchema shape — at serving time these are the reduced UBPs of
// incoming impressions). Right input: the serialized per-ad models
// produced by ModelPlan, scanned as SourceModels. Each feature row joins
// the model valid at its instant, contributes w_kw · count, and the
// per-impression contributions are summed by a GroupApply whose key
// includes the model blob (constant per ad), so the final projection can
// apply the bias and the logistic function.
//
// Impressions whose UBP was empty produce no rows here; a deployment
// scores them with the model's bias alone (the evaluation harness does).
func ScorePlan(p Params, annotate bool) *temporal.Plan {
	rows := maybeExchange(temporal.Scan(SourceReduced, TrainSchema), annotate, adKey())
	models := maybeExchange(temporal.Scan(SourceModels, ModelSchema), annotate, adKey())

	// Model events are valid for the hop AFTER their training window; at
	// serving time that alignment is exactly right. For offline
	// back-testing over the same log, the harness feeds test-period rows,
	// which fall inside the models' validity — no shift needed.
	joined := rows.Join(models, []string{"AdId"}, []string{"AdId"}, nil)

	// Per-row partial dot product w_kw * count. Model blobs are parsed
	// once per distinct string through a tiny cache, shared by every
	// engine compiled from this plan — parallel reducers and streaming
	// partitions included, hence the concurrent map.
	var cache sync.Map // blob string -> *ml.Model
	lookup := func(blob string) *ml.Model {
		if m, ok := cache.Load(blob); ok {
			return m.(*ml.Model)
		}
		m, err := ParseModel(blob)
		if err != nil {
			m = &ml.Model{Weights: map[int64]float64{}}
		}
		cache.Store(blob, m)
		return m
	}
	partial := joined.Project(
		temporal.Keep("Time"),
		temporal.Keep("UserId"),
		temporal.Keep("AdId"),
		temporal.Keep("Clicked"),
		temporal.Keep("Model"),
		temporal.Compute("Part", temporal.KindFloat, func(v []temporal.Value) temporal.Value {
			m := lookup(v[0].AsString())
			return temporal.Float(m.Weights[v[1].AsInt()] * float64(v[2].AsInt()))
		}, "Model", "Keyword", "KwCount"),
	)

	// One group per impression: sum the partial contributions. The
	// rows of one impression share a timestamp, so the snapshot Sum over
	// their point lifetimes is exactly the dot product.
	perImpression := partial.GroupApply(
		[]string{"Time", "UserId", "AdId", "Clicked", "Model"},
		func(g *temporal.Plan) *temporal.Plan { return g.Sum("Part", "Dot") },
	)

	return perImpression.Project(
		temporal.Keep("Time"),
		temporal.Keep("UserId"),
		temporal.Keep("AdId"),
		temporal.Keep("Clicked"),
		temporal.Compute("Score", temporal.KindFloat, func(v []temporal.Value) temporal.Value {
			m := lookup(v[0].AsString())
			return temporal.Float(stats.Sigmoid(m.Bias + v[1].AsFloat()))
		}, "Model", "Dot"),
	)
}

// SourceModels is the scan name of the model stream in ScorePlan.
const SourceModels = "models"
