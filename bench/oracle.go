package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"

	"threedess/internal/server"
)

// The reference every served answer is checked against: an exhaustive
// weighted scan written without any of the engine's code, ordered by
// (distance, id) — the canonical order every search path must produce.

// refRow is one stored shape as the reference sees it: identity plus its
// vector of the queried kind.
type refRow struct {
	ID    int64
	Name  string
	Group int
	Vec   []float64
}

// bruteForce returns the k nearest rows to q under weights w (nil =
// uniform), skipping id exclude, with similarities under dmax.
func bruteForce(rows []refRow, q, w []float64, k int, exclude int64, dmax float64) []server.SearchResult {
	before := func(a, b server.SearchResult) bool {
		if a.Distance != b.Distance {
			return a.Distance < b.Distance
		}
		return a.ID < b.ID
	}
	var best []server.SearchResult // ascending, at most k
	for _, r := range rows {
		if r.ID == exclude {
			continue
		}
		sum := 0.0
		for d := range q {
			diff := q[d] - r.Vec[d]
			if w != nil {
				sum += w[d] * diff * diff
			} else {
				sum += diff * diff
			}
		}
		dist := math.Sqrt(sum)
		cand := server.SearchResult{ID: r.ID, Name: r.Name, Group: r.Group,
			Distance: dist, Similarity: math.Max(0, math.Min(1, 1-dist/dmax))}
		if len(best) == k && !before(cand, best[k-1]) {
			continue
		}
		at := sort.Search(len(best), func(i int) bool { return before(cand, best[i]) })
		if len(best) < k {
			best = append(best, cand)
		}
		copy(best[at+1:], best[at:])
		best[at] = cand
	}
	return best
}

// dmaxOf is the Equation-4.4 normaliser: the diagonal of the rows'
// bounding box.
func dmaxOf(rows []refRow) float64 {
	if len(rows) == 0 {
		return 1e-12
	}
	lo := append([]float64(nil), rows[0].Vec...)
	hi := append([]float64(nil), rows[0].Vec...)
	for _, r := range rows {
		for d, x := range r.Vec {
			lo[d], hi[d] = math.Min(lo[d], x), math.Max(hi[d], x)
		}
	}
	sum := 0.0
	for d := range lo {
		sum += (hi[d] - lo[d]) * (hi[d] - lo[d])
	}
	return math.Max(math.Sqrt(sum), 1e-12)
}

// sameAnswer compares row for row: ids and tie order, and distance and
// similarity bit for bit.
func sameAnswer(got, want []server.SearchResult) bool { return slices.Equal(got, want) }

func decodeAnswer(body []byte) ([]server.SearchResult, error) {
	var out []server.SearchResult
	err := json.Unmarshal(body, &out)
	return out, err
}

// checker accumulates the correctness checks of a run. Every check is an
// attempted op; every mismatch a failed one.
type checker struct {
	attempted, failed int
	notes             []string
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.notes) < 5 {
			c.notes = append(c.notes, fmt.Sprintf(format, args...))
		}
	}
}

// checkAnswer verifies one served answer against the reference.
func (c *checker) checkAnswer(what string, body []byte, want []server.SearchResult) []server.SearchResult {
	got, err := decodeAnswer(body)
	c.check(err == nil && sameAnswer(got, want), "%s: served %v, reference %v", what, got, want)
	return got
}

// recall scores one answer: the share of the query's group retrieved, out
// of what ten results could hold. groupSize counts the members an answer
// may contain (the query shape itself excluded when it is a stored one).
func recall(results []server.SearchResult, group, groupSize int) float64 {
	hits := 0
	for _, r := range results {
		if r.Group == group {
			hits++
		}
	}
	return float64(hits) / float64(min(10, groupSize))
}
