package core

import (
	"context"
	"fmt"
	"sort"

	"threedess/internal/features"
)

// Step is one stage of a multi-step search: a feature vector, optional
// per-dimension weights, and an optional candidate cut. After the step
// re-orders the surviving candidates by its feature distance, only the
// best Keep candidates survive to the next step (Keep ≤ 0 keeps all) —
// the "filter previous results" operation of the paper's query-processing
// flow chart (Figure 2).
type Step struct {
	Feature features.Kind
	Weights []float64
	Keep    int
}

// MultiStepOptions configure the §4.2 strategy: the first step retrieves
// CandidateSize shapes by its feature; every later step re-orders the
// surviving candidates by its own feature distance; the final K results
// are presented. This mirrors the paper's experiment: "the system first
// retrieves thirty shapes based on moment invariants, uses the geometric
// parameters to reorder these thirty shapes and then presents ten most
// similar shapes".
type MultiStepOptions struct {
	Steps         []Step
	CandidateSize int // default 30
	K             int // default 10
}

// DefaultMultiStepOptions returns the paper's experiment configuration for
// the given step sequence.
func DefaultMultiStepOptions(steps ...Step) MultiStepOptions {
	return MultiStepOptions{Steps: steps, CandidateSize: 30, K: 10}
}

// SearchMultiStep runs the multi-step strategy and returns the final K
// results ordered by the last step's distance. ctx covers the whole
// pipeline: the candidate retrieval honors it, and every re-ranking step
// checks it before touching the store.
func (e *Engine) SearchMultiStep(ctx context.Context, query features.Set, opt MultiStepOptions) ([]Result, error) {
	if len(opt.Steps) == 0 {
		return nil, fmt.Errorf("core: multi-step search needs at least one step")
	}
	if opt.CandidateSize <= 0 {
		opt.CandidateSize = 30
	}
	if opt.K <= 0 {
		opt.K = 10
	}
	// Step 1: retrieve the candidate set.
	first := opt.Steps[0]
	candidates, err := e.SearchTopK(ctx, query, Options{
		Feature: first.Feature,
		Weights: first.Weights,
		K:       opt.CandidateSize,
	})
	if err != nil {
		return nil, fmt.Errorf("core: multi-step step 1 (%v): %w", first.Feature, err)
	}
	if first.Keep > 0 && len(candidates) > first.Keep {
		candidates = candidates[:first.Keep]
	}
	// Later steps: re-rank the surviving candidates by their own feature.
	for si, step := range opt.Steps[1:] {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		qv, ok := query[step.Feature]
		if !ok {
			return nil, fmt.Errorf("core: multi-step step %d: query has no %v vector", si+2, step.Feature)
		}
		if step.Weights != nil && len(step.Weights) != len(qv) {
			return nil, fmt.Errorf("core: multi-step step %d: %d weights for %d dims",
				si+2, len(step.Weights), len(qv))
		}
		st, err := e.cstore.Store(step.Feature)
		if err != nil {
			return nil, err
		}
		dmax := st.DMax()
		ids := make([]int64, len(candidates))
		for i, c := range candidates {
			ids[i] = c.ID
		}
		recs := rowsOf(st, ids)
		rescored := candidates[:0]
		for ci, c := range candidates {
			rec := recs[ci]
			if rec == nil {
				continue
			}
			xv, ok := rec.Features[step.Feature]
			if !ok || len(xv) != len(qv) {
				continue
			}
			d := WeightedDistance(qv, xv, step.Weights)
			c.Distance = d
			c.Similarity = Similarity(d, dmax)
			rescored = append(rescored, c)
		}
		candidates = rescored
		sort.Slice(candidates, func(i, j int) bool {
			if candidates[i].Distance != candidates[j].Distance {
				return candidates[i].Distance < candidates[j].Distance
			}
			return candidates[i].ID < candidates[j].ID
		})
		if step.Keep > 0 && len(candidates) > step.Keep {
			candidates = candidates[:step.Keep]
		}
	}
	if len(candidates) > opt.K {
		candidates = candidates[:opt.K]
	}
	return candidates, nil
}

// SearchCombined ranks shapes by a weighted sum of per-feature normalized
// distances — the "combined feature vectors" baseline the paper contrasts
// with multi-step search. featureWeights maps each kind to its weight in
// the linear combination of dmax-normalized distances (the linear
// combination §3.5.3 mentions for overall similarity).
func (e *Engine) SearchCombined(ctx context.Context, query features.Set, featureWeights map[features.Kind]float64, k int) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(featureWeights) == 0 {
		return nil, fmt.Errorf("core: combined search needs feature weights")
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: K must be positive, got %d", k)
	}
	type kw struct {
		kind   features.Kind
		weight float64
		qv     features.Vector
		dmax   float64
	}
	var kinds []kw
	for kind, w := range featureWeights {
		if w < 0 {
			return nil, fmt.Errorf("core: negative weight for %v", kind)
		}
		qv, ok := query[kind]
		if !ok {
			return nil, fmt.Errorf("core: query has no %v vector", kind)
		}
		kinds = append(kinds, kw{kind: kind, weight: w, qv: qv})
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i].kind < kinds[j].kind })
	// A scorable shape carries every kind, so the first kind's rows cover
	// them all; the snapshots share one version, so those rows and every
	// kind's box are one state.
	ks := make([]features.Kind, len(kinds))
	for i, f := range kinds {
		ks[i] = f.kind
	}
	sts, err := e.sameVersionStores(ctx, ks)
	if err != nil {
		return nil, err
	}
	for i := range kinds {
		kinds[i].dmax = sts[i].DMax()
	}

	var out []Result
	for i, rec := range sts[0].Records() {
		if i&63 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		score := 0.0
		scorable := true
		for _, f := range kinds {
			xv, ok := rec.Features[f.kind]
			if !ok || len(xv) != len(f.qv) {
				scorable = false
				break
			}
			score += f.weight * WeightedDistance(f.qv, xv, nil) / f.dmax
		}
		if !scorable {
			continue
		}
		out = append(out, Result{
			ID:         rec.ID,
			Name:       rec.Name,
			Group:      rec.Group,
			Distance:   score,
			Similarity: Similarity(score, 1), // score is already normalized
		})
	}
	sortResults(out)
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}
