package core

import (
	"context"
	"fmt"
	"math"

	"threedess/internal/colstore"
	"threedess/internal/features"
)

// ScanMode is what a weighted search asks of its answer. Every weighted
// search runs on the same substrate — one blocked scan over the columnar
// store's quantized columns (internal/colstore) — and the mode only says
// whether survivors of that filter are re-ranked by the exact kernel.
type ScanMode int

const (
	// ScanAuto, the zero value, asks for the exact answer: R-tree k-NN
	// seeds a pruning bound, the quantized columns filter rows whose lower
	// bound already exceeds it, and only survivors reach the exact
	// Equation-4.3 kernel. A server under brownout may substitute
	// ScanCoarse for it.
	ScanAuto ScanMode = iota
	// ScanExact is the same search as ScanAuto; on the wire it additionally
	// opts the request out of the server's coarse brownout tier.
	ScanExact
	// ScanCoarse serves the filter stage AS the answer — rows ranked by
	// their quantized lower bounds with the exact re-rank skipped. Results
	// are approximate (distances read low, so similarities read high, and
	// ranking may differ near ties); it exists for brownout serving, where
	// the caller must mark the response degraded.
	ScanCoarse
)

func (m ScanMode) String() string {
	switch m {
	case ScanAuto:
		return "auto"
	case ScanExact:
		return "exact"
	case ScanCoarse:
		return "coarse"
	default:
		return fmt.Sprintf("ScanMode(%d)", int(m))
	}
}

// ParseScanMode maps the wire values of "scan_mode" onto a ScanMode. The
// "two-stage" spellings name the way every exact search now executes, so
// they parse as ScanAuto.
func ParseScanMode(s string) (ScanMode, error) {
	switch s {
	case "", "auto", "two-stage", "twostage", "two_stage":
		return ScanAuto, nil
	case "exact":
		return ScanExact, nil
	case "coarse":
		return ScanCoarse, nil
	default:
		return ScanAuto, fmt.Errorf("core: unknown scan mode %q (want auto, exact, two-stage, or coarse)", s)
	}
}

// ColStore exposes the engine's columnar store manager so servers can run
// its Watch loop and tests can inspect staleness behavior.
func (e *Engine) ColStore() *colstore.Manager { return e.cstore }

// weightedTopK serves a weighted top-k query from the columnar store.
// Exact results are bit-identical to ranking every record by
// WeightedDistance — same rows, same (distance, id) order, same distances.
func (e *Engine) weightedTopK(ctx context.Context, kind features.Kind, qv features.Vector, w []float64, k int, dmax float64, coarse bool) ([]Result, error) {
	st, err := e.cstore.Store(kind)
	if err != nil {
		return nil, err
	}
	search := st.SearchTopK
	if coarse {
		search = st.SearchCoarseTopK
	}
	cands, _, err := search(ctx, qv, w, k, e.workers)
	if err != nil {
		return nil, err
	}
	// var (not make) so an empty result is nil.
	var out []Result
	for _, c := range cands {
		out = append(out, batchResult(c.Rec, c.Dist, dmax))
	}
	return out, nil
}

// weightedThreshold serves a weighted similarity-threshold query from the
// columnar store. The prune radius converts the threshold through
// Equation 4.4 with a hair of slack (the answer is defined on
// similarities, not distances, and the two predicates can disagree by an
// ulp at the boundary); every survivor is then re-checked with the
// similarity predicate itself. Coarse distances are lower bounds, so a
// coarse answer can only over-include relative to the exact one, never
// miss.
func (e *Engine) weightedThreshold(ctx context.Context, kind features.Kind, qv features.Vector, w []float64, threshold, dmax float64, coarse bool) ([]Result, error) {
	st, err := e.cstore.Store(kind)
	if err != nil {
		return nil, err
	}
	radius := math.Inf(1)
	if threshold > 0 {
		// Relative slack covers d ≤ (1−t)·dmax rounding; the additive
		// dmax term covers thresholds so close to 1 that tiny distances
		// still round to similarity 1.
		radius = (1-threshold)*dmax*(1+1e-9) + dmax*1e-12
	}
	search := st.SearchRadius
	if coarse {
		search = st.SearchCoarseRadius
	}
	cands, _, err := search(ctx, qv, w, radius, e.workers)
	if err != nil {
		return nil, err
	}
	var out []Result
	for _, c := range cands {
		if r := batchResult(c.Rec, c.Dist, dmax); r.Similarity >= threshold {
			out = append(out, r)
		}
	}
	return out, nil
}
