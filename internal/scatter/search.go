package scatter

import (
	"context"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"threedess/internal/colstore"
)

// PartialHeader names the shards whose slice of the corpus is missing
// from a degraded answer, comma-joined in shard order. Absent when every
// shard contributed.
const PartialHeader = "X-Partial-Results"

// Query is one scatter-gather search. The query is always a resolved
// feature vector — the coordinator (or its HTTP layer) resolves
// query-by-id and query-by-example down to a vector before fan-out, so
// shards never re-extract features.
type Query struct {
	// Feature is the descriptor name ("moments", ...).
	Feature string
	// Vector is the query point in that descriptor's space.
	Vector []float64
	// Weights are the per-dimension weights of Equation 4.3 (nil =
	// uniform).
	Weights []float64
	// Threshold switches to similarity-threshold search when non-nil;
	// otherwise K bounds a top-k search.
	Threshold *float64
	K         int
	// ScanMode is passed through to the shards ("auto", "exact" or
	// "coarse"; see server.SearchRequest.ScanMode).
	ScanMode string
	// ExcludeID drops a shape from the merged results (query-by-id always
	// retrieves the query shape itself).
	ExcludeID int64
}

// Result is one merged result row. The JSON tags mirror the server's
// SearchResult so coordinator answers are indistinguishable from
// single-node answers.
type Result struct {
	ID         int64   `json:"id"`
	Name       string  `json:"name"`
	Group      int     `json:"group"`
	Distance   float64 `json:"distance"`
	Similarity float64 `json:"similarity"`
}

// Outcome is a merged search answer. Missing lists the shards (in shard
// order) whose corpus slice is absent because they stayed down past their
// retry budget; empty Missing means the answer is bit-identical to a
// single-node scan over the whole corpus.
type Outcome struct {
	Results []Result
	Missing []string
}

// shardSearchReq mirrors the server's SearchRequest fields the
// coordinator uses — a resolved query vector plus the global dmax
// override that makes per-shard similarity values (and threshold
// filtering) agree with a single-node scan.
type shardSearchReq struct {
	QueryVector []float64 `json:"query_vector"`
	Feature     string    `json:"feature"`
	Threshold   *float64  `json:"threshold,omitempty"`
	K           int       `json:"k,omitempty"`
	Weights     []float64 `json:"weights,omitempty"`
	ScanMode    string    `json:"scan_mode,omitempty"`
	DMax        *float64  `json:"dmax,omitempty"`
}

// shardBounds mirrors the server's /api/cluster/bounds answer, read from
// one column snapshot of the shard: the bounding box of its live rows of
// one kind, their count, and the data version the snapshot was taken at,
// so coordinators can tag cached answers with the fleet-wide data state.
type shardBounds struct {
	Count   int       `json:"count"`
	Lo      []float64 `json:"lo,omitempty"`
	Hi      []float64 `json:"hi,omitempty"`
	Version int64     `json:"version,omitempty"`
}

// BoundsSet is the outcome of the bounds round: everything the search
// round needs (the global dmax and which shards survived), plus the
// per-shard data versions that make a coherent cache tag.
type BoundsSet struct {
	Feature string
	DMax    float64
	Epoch   int64
	missing []bool
	bounds  []shardBounds
}

// Complete reports whether every shard contributed its bounds — a
// prerequisite for caching the final answer.
func (b *BoundsSet) Complete() bool {
	for _, m := range b.missing {
		if m {
			return false
		}
	}
	return true
}

// VersionTag folds the ring epoch and every shard's data version into
// one value, changing whenever any shard's corpus slice changes (even by
// a write that bypassed this coordinator) or the topology moves. Two
// coordinators observing the same fleet state compute the same tag, so
// ETags agree across coordinators.
func (b *BoundsSet) VersionTag() int64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(b.Epoch)
	for i, sb := range b.bounds {
		put(int64(i))
		put(sb.Version)
	}
	return int64(h.Sum64())
}

// CollectBounds runs the bounds round: every fleet shard reports the
// bounding box of its live rows of the feature, their count, and its data
// version. A shard that cannot answer is marked missing —
// its box is unknown, so including its rows in a later search round
// could disagree with the dmax the others were told to use. A query
// fault from any shard (bad feature name, etc.) fails the round.
func (c *Coordinator) CollectBounds(ctx context.Context, feature string) (*BoundsSet, error) {
	n := c.NumShards()
	b := &BoundsSet{
		Feature: feature,
		Epoch:   c.Epoch(),
		missing: make([]bool, n),
		bounds:  make([]shardBounds, n),
	}
	path := "/api/cluster/bounds?feature=" + url.QueryEscape(feature)
	errs := c.ForEach(ctx, func(ctx context.Context, i int, sc *ShardClient) error {
		return sc.Call(ctx, http.MethodGet, path, nil, &b.bounds[i])
	})
	for i, err := range errs {
		if err != nil {
			if QueryFault(err) {
				return nil, err // the query names a bad feature, etc.
			}
			b.missing[i] = true
		}
	}
	b.DMax = mergeDMax(b.bounds, b.missing)
	return b, nil
}

// SearchBounds runs the search round against the shards that survived a
// prior CollectBounds, and merges the partials into the canonical order.
func (c *Coordinator) SearchBounds(ctx context.Context, q Query, b *BoundsSet) (*Outcome, error) {
	if len(q.Vector) == 0 {
		return nil, fmt.Errorf("scatter: query has no vector")
	}
	n := c.NumShards()
	if len(b.missing) != n {
		// The topology moved between rounds (a concurrent self-heal);
		// restart from a fresh bounds round rather than mixing views.
		nb, err := c.CollectBounds(ctx, b.Feature)
		if err != nil {
			return nil, err
		}
		*b = *nb
	}
	missing := append([]bool(nil), b.missing...)
	dmax := b.DMax

	req := shardSearchReq{
		QueryVector: q.Vector,
		Feature:     q.Feature,
		Threshold:   q.Threshold,
		ScanMode:    q.ScanMode,
		DMax:        &dmax,
		Weights:     q.Weights,
	}
	if q.Threshold == nil {
		req.K = q.K
		if q.ExcludeID != 0 {
			req.K++ // absorb the query shape, which is always retrieved
		}
	}
	partials := make([][]Result, n)
	errs := c.ForEach(ctx, func(ctx context.Context, i int, sc *ShardClient) error {
		if missing[i] {
			return nil
		}
		return sc.Call(ctx, http.MethodPost, "/api/search", req, &partials[i])
	})
	for i, err := range errs {
		if err != nil {
			if QueryFault(err) {
				return nil, err
			}
			missing[i] = true
			partials[i] = nil
		}
	}

	out := &Outcome{}
	anyAlive := false
	for i, m := range missing {
		if m {
			out.Missing = append(out.Missing, ShardName(i))
		} else {
			anyAlive = true
		}
	}
	if !anyAlive {
		return nil, ErrNoShards
	}

	// Merge: concatenate and re-sort into the canonical order. Each
	// partial is already its shard's top-(K) slice, so for top-k the
	// global top-K is a subset of the union; for threshold every matching
	// row is present. During a migration's double-routing window a moved
	// record exists on both its old and new owner, so equal ids collapse
	// to one row (they are byte-identical copies — verified by CRC before
	// cutover — and adjacent after the sort). Truncation happens after the
	// exclude so dropping the query shape cannot cost a legitimate row.
	for _, p := range partials {
		out.Results = append(out.Results, p...)
	}
	sort.Slice(out.Results, func(i, j int) bool {
		if out.Results[i].Distance != out.Results[j].Distance {
			return out.Results[i].Distance < out.Results[j].Distance
		}
		return out.Results[i].ID < out.Results[j].ID
	})
	dedup := out.Results[:0]
	for i, r := range out.Results {
		if i > 0 && r.ID == dedup[len(dedup)-1].ID {
			continue
		}
		dedup = append(dedup, r)
	}
	out.Results = dedup
	if q.ExcludeID != 0 {
		kept := out.Results[:0]
		for _, r := range out.Results {
			if r.ID != q.ExcludeID {
				kept = append(kept, r)
			}
		}
		out.Results = kept
	}
	if q.Threshold == nil && len(out.Results) > q.K {
		out.Results = out.Results[:q.K]
	}
	return out, nil
}

// Search fans the query out over every shard and merges the per-shard
// partial results into the canonical (distance, id) order.
//
// Two fan-out rounds make the merged answer bit-identical to a
// single-node scan: the first collects the bounding box of each shard's
// live rows, which merge exactly (elementwise min/max) into the box of
// the whole live corpus; its colstore.Diagonal — the function a single
// node's DMax is — is sent back as a dmax override, so every shard
// computes Equation-4.4 similarities (and threshold cutoffs) against the
// global normalizer instead of its local one. Distances are dmax-independent, and
// the merge re-sorts by the same (distance ascending, id ascending) rule
// every engine path uses, so rows, order, and every float match the
// single-node answer bit for bit.
//
// A shard down past its retry budget in either round is dropped from the
// query and named in Outcome.Missing — degraded, never failed; a shard
// still shedding load (429) past its budget counts as down. Any other
// 4xx means the query itself is at fault (QueryFault) and is returned as
// a *ShardError. Only when every shard is missing does Search fail with
// ErrNoShards.
func (c *Coordinator) Search(ctx context.Context, q Query) (*Outcome, error) {
	if len(q.Vector) == 0 {
		return nil, fmt.Errorf("scatter: query has no vector")
	}
	b, err := c.CollectBounds(ctx, q.Feature)
	if err != nil {
		return nil, err
	}
	return c.SearchBounds(ctx, q, b)
}

// ErrNoShards reports that every shard was unreachable past its retry
// budget — the one condition under which a scatter query fails rather
// than degrades.
var ErrNoShards = fmt.Errorf("scatter: no shards reachable")

// mergeDMax merges per-shard bounding boxes elementwise (min/max, exact
// in floating point) into the global box and returns its
// colstore.Diagonal: bit-identical, by construction, to the DMax of one
// node holding every shard's rows.
func mergeDMax(bounds []shardBounds, missing []bool) float64 {
	var lo, hi []float64
	for i, b := range bounds {
		if missing[i] || b.Count == 0 || len(b.Lo) == 0 {
			continue
		}
		if lo == nil {
			lo = append([]float64(nil), b.Lo...)
			hi = append([]float64(nil), b.Hi...)
			continue
		}
		for d := range lo {
			if d < len(b.Lo) && b.Lo[d] < lo[d] {
				lo[d] = b.Lo[d]
			}
			if d < len(b.Hi) && b.Hi[d] > hi[d] {
				hi[d] = b.Hi[d]
			}
		}
	}
	return colstore.Diagonal(lo, hi)
}

// JoinMissing renders an Outcome's missing-shard list for the
// X-Partial-Results header.
func JoinMissing(missing []string) string { return strings.Join(missing, ",") }

// formatEpoch renders an epoch for the X-Ring-Epoch header.
func formatEpoch(e int64) string { return strconv.FormatInt(e, 10) }
