// Package colstore maintains contiguous columnar copies of the descriptor
// vectors held by a shapedb.DB, one store per feature kind.
//
// A Store lays the snapshot out structure-of-arrays style: an id column,
// one flat []float64 per feature dimension, and one quantized []uint8 per
// dimension (a 256-cell scalar grid in the spirit of the VA-file). The
// float columns make the exact weighted-distance kernel a tight
// cache-friendly loop; the byte columns drive a cheap coarse filter whose
// per-dimension cell distance is a provable lower bound on the true
// per-dimension distance, so a two-stage top-k search can prune most rows
// and still return exactly the results an exhaustive scan would.
//
// Stores are immutable once published. A Manager watches the owning DB
// (via Version / CommitNotify) and republishes per-kind stores when the
// record set mutates, appending in place when the snapshot merely grew and
// rebuilding from scratch otherwise.
package colstore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"threedess/internal/features"
	"threedess/internal/rtree"
	"threedess/internal/shapedb"
	"threedess/internal/workpool"
)

const (
	// qCells is the number of quantization cells per dimension. One byte
	// per dimension per row keeps the coarse pass at ~dim bytes of memory
	// traffic per row instead of ~8*dim.
	qCells = 256

	// blockRows is the unit of work for the coarse filter: lower bounds
	// are accumulated column-at-a-time into a reusable buffer of this many
	// rows, and cancellation is checked between blocks.
	blockRows = 1024

	// rebuildAppendFrac forces a full rebuild (fresh quantization grid and
	// R-tree) once the rows appended since the last full build exceed this
	// fraction of the tree's coverage. Appended rows are clamped into the
	// existing grid (still safe — edge cells are half-infinite) and are
	// invisible to the seeding tree (still safe — a subset k-th distance
	// only loosens the bound), so this is a performance knob, not a
	// correctness one.
	rebuildAppendFrac = 4 // rebuild when appended > treeRows/4
)

// Candidate is one row surviving a store search, resolved back to its
// snapshot record. Dist is bit-identical to core.WeightedDistance over the
// same vectors: both accumulate w[d]*diff^2 in ascending dimension order
// and take a single square root.
type Candidate struct {
	Rec  *shapedb.Record
	Dist float64
}

// Stats reports how much work a single search actually did, for tests and
// benchmark introspection.
type Stats struct {
	Rows       int  // rows considered by the coarse pass
	ExactEvals int  // rows that needed the exact kernel
	TreeSeeded bool // whether the R-tree supplied an initial bound
}

// Store is an immutable columnar snapshot of every record carrying one
// feature kind, ordered by ascending record ID.
type Store struct {
	kind    features.Kind
	dim     int
	version int64 // shapedb.DB.Version at snapshot time

	ids  []int64           // id column, ascending
	recs []*shapedb.Record // recs[i] owns ids[i]; aligned with the columns
	cols [][]float64       // cols[d][i] = dimension d of row i

	// Quantized mirror of cols. Cell c of dimension d covers
	// [qlo[d]+c*qstep[d], qlo[d]+(c+1)*qstep[d]] with cells 0 and
	// qCells-1 extended to -Inf/+Inf so rows appended outside the
	// original grid still quantize safely.
	qcols [][]uint8
	qlo   []float64
	qstep []float64

	// lo/hi is the bounding box of exactly these rows, the Equation-4.4
	// normalizer's input. Unlike the grid it is never shared: an append
	// extends a copy, and a delete rebuilds. All zero when there are no
	// rows.
	lo, hi []float64

	// tree is an STR-packed R-tree over rows [0, treeRows) used only to
	// seed the top-k pruning bound. After an incremental append it covers
	// a prefix of the store; nil when the kind has no rows.
	tree     *rtree.Tree
	treeRows int
}

// Kind returns the feature kind this store indexes.
func (s *Store) Kind() features.Kind { return s.kind }

// Dim returns the dimensionality of the indexed vectors.
func (s *Store) Dim() int { return s.dim }

// Len returns the number of rows.
func (s *Store) Len() int { return len(s.ids) }

// Version returns the DB mutation counter the snapshot was taken at.
func (s *Store) Version() int64 { return s.version }

// Bounds returns copies of the bounding box (lo, hi) of the store's rows,
// or ok=false when it has none. A cluster coordinator merges per-shard
// boxes elementwise into the global box, whose Diagonal equals the DMax
// of one store holding every row.
func (s *Store) Bounds() (lo, hi []float64, ok bool) {
	if len(s.ids) == 0 {
		return nil, nil, false
	}
	return append([]float64(nil), s.lo...), append([]float64(nil), s.hi...), true
}

// DMax is the normalizer of Equation 4.4, "the maximum distance of points
// in the feature space": the Diagonal of the store's own bounding box. It
// is a function of the live rows alone, so every replay, compaction,
// restore or migration that reproduces the rows reproduces it.
func (s *Store) DMax() float64 { return Diagonal(s.lo, s.hi) }

// Diagonal is the length of the box (lo, hi): squared extents summed in
// dimension order, one square root, floored at 1e-12 so a similarity never
// divides by zero. Store.DMax and the cluster coordinator's merged box
// both go through it, which is what makes them bit-identical.
func Diagonal(lo, hi []float64) float64 {
	sum := 0.0
	for i := range lo {
		d := hi[i] - lo[i]
		sum += d * d
	}
	if d := math.Sqrt(sum); d > 1e-12 {
		return d
	}
	return 1e-12
}

// IDs returns a copy of the id column.
func (s *Store) IDs() []int64 {
	out := make([]int64, len(s.ids))
	copy(out, s.ids)
	return out
}

// Records returns the snapshot records backing the rows, in row order.
// Callers must not mutate the returned records.
func (s *Store) Records() []*shapedb.Record {
	out := make([]*shapedb.Record, len(s.recs))
	copy(out, s.recs)
	return out
}

// build constructs a store for kind from a snapshot. prev, when non-nil
// and still a row-for-row prefix of the new snapshot (pointer identity),
// donates its quantization grid and seeding tree so only the appended
// suffix is processed.
func build(kind features.Kind, dim int, recs []*shapedb.Record, version int64, prev *Store) (*Store, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("colstore: feature kind %v has no dimensionality", kind)
	}
	rows := make([]*shapedb.Record, 0, len(recs))
	for _, rec := range recs {
		if _, ok := rec.Features[kind]; ok {
			rows = append(rows, rec)
		}
	}
	if prev != nil && prev.dim == dim && prev.canAppend(rows) {
		return prev.appendRows(rows, version)
	}
	s := &Store{
		kind:    kind,
		dim:     dim,
		version: version,
		ids:     make([]int64, len(rows)),
		recs:    rows,
		cols:    make([][]float64, dim),
		qcols:   make([][]uint8, dim),
		qlo:     make([]float64, dim),
		qstep:   make([]float64, dim),
		lo:      make([]float64, dim),
		hi:      make([]float64, dim),
	}
	for d := 0; d < dim; d++ {
		s.cols[d] = make([]float64, len(rows))
		s.qcols[d] = make([]uint8, len(rows))
	}
	for i, rec := range rows {
		v := rec.Features[kind]
		if len(v) != dim {
			return nil, fmt.Errorf("colstore: record %d has %d-dim %v vector, want %d", rec.ID, len(v), kind, dim)
		}
		s.ids[i] = rec.ID
		for d := 0; d < dim; d++ {
			s.cols[d][i] = v[d]
		}
	}
	for d := 0; d < dim; d++ {
		s.buildGrid(d)
	}
	if err := s.buildTree(); err != nil {
		return nil, err
	}
	return s, nil
}

// canAppend reports whether rows extends this store's rows by pointer
// identity, and the appended tail is small enough to skip a full rebuild.
func (s *Store) canAppend(rows []*shapedb.Record) bool {
	if len(rows) < len(s.recs) {
		return false
	}
	for i, rec := range s.recs {
		if rows[i] != rec {
			return false
		}
	}
	appended := len(rows) - s.treeRows
	return appended <= maxInt(blockRows, s.treeRows/rebuildAppendFrac)
}

// appendRows publishes a new store sharing s's grid and tree, with the
// suffix of rows quantized into the existing (half-infinite-edged) grid.
func (s *Store) appendRows(rows []*shapedb.Record, version int64) (*Store, error) {
	n := len(rows)
	ns := &Store{
		kind:     s.kind,
		dim:      s.dim,
		version:  version,
		ids:      make([]int64, n),
		recs:     rows,
		cols:     make([][]float64, s.dim),
		qcols:    make([][]uint8, s.dim),
		qlo:      s.qlo,
		qstep:    s.qstep,
		lo:       append([]float64(nil), s.lo...),
		hi:       append([]float64(nil), s.hi...),
		tree:     s.tree,
		treeRows: s.treeRows,
	}
	copy(ns.ids, s.ids)
	for d := 0; d < s.dim; d++ {
		ns.cols[d] = make([]float64, n)
		copy(ns.cols[d], s.cols[d])
		ns.qcols[d] = make([]uint8, n)
		copy(ns.qcols[d], s.qcols[d])
	}
	for i := len(s.recs); i < n; i++ {
		rec := rows[i]
		v := rec.Features[ns.kind]
		if len(v) != ns.dim {
			return nil, fmt.Errorf("colstore: record %d has %d-dim %v vector, want %d", rec.ID, len(v), ns.kind, ns.dim)
		}
		ns.ids[i] = rec.ID
		for d := 0; d < ns.dim; d++ {
			ns.cols[d][i] = v[d]
			ns.qcols[d][i] = ns.quantize(d, v[d])
			if i == 0 || v[d] < ns.lo[d] {
				ns.lo[d] = v[d]
			}
			if i == 0 || v[d] > ns.hi[d] {
				ns.hi[d] = v[d]
			}
		}
	}
	return ns, nil
}

// buildGrid finds dimension d's extent, derives the quantization grid
// from it, and fills the byte column.
func (s *Store) buildGrid(d int) {
	col := s.cols[d]
	if len(col) == 0 {
		s.qlo[d], s.qstep[d] = 0, 0
		return
	}
	lo, hi := col[0], col[0]
	for _, v := range col[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	s.lo[d], s.hi[d] = lo, hi
	s.qlo[d] = lo
	s.qstep[d] = (hi - lo) / qCells
	qc := s.qcols[d]
	for i, v := range col {
		qc[i] = s.quantize(d, v)
	}
}

// quantize maps v into a cell of dimension d's grid and then nudges the
// cell until the cell's own boundary arithmetic — the exact expressions
// the query LUT evaluates — provably contains v. Without the fix-up a
// rounded multiply could park v one cell high or low, making the "lower
// bound" overshoot the true distance and prune a legitimate result.
func (s *Store) quantize(d int, v float64) uint8 {
	lo, step := s.qlo[d], s.qstep[d]
	c := 0
	if step > 0 {
		c = int((v - lo) / step)
		if c < 0 {
			c = 0
		} else if c > qCells-1 {
			c = qCells - 1
		}
	}
	for c > 0 && lo+float64(c)*step > v {
		c--
	}
	for c < qCells-1 && lo+float64(c+1)*step < v {
		c++
	}
	return uint8(c)
}

// buildTree STR-packs an R-tree over every row for bound seeding.
func (s *Store) buildTree() error {
	s.treeRows = len(s.ids)
	if len(s.ids) == 0 {
		s.tree = nil
		return nil
	}
	items := make([]rtree.BulkItem, len(s.ids))
	buf := make([]float64, len(s.ids)*s.dim)
	for i, id := range s.ids {
		p := buf[i*s.dim : (i+1)*s.dim]
		for d := 0; d < s.dim; d++ {
			p[d] = s.cols[d][i]
		}
		items[i] = rtree.BulkItem{ID: id, Point: p}
	}
	tr, err := rtree.BulkLoad(s.dim, rtree.DefaultMaxEntries, items)
	if err != nil {
		return err
	}
	s.tree = tr
	return nil
}

// rowOf returns the row index of record id, or -1.
func (s *Store) rowOf(id int64) int {
	i := sort.Search(len(s.ids), func(i int) bool { return s.ids[i] >= id })
	if i < len(s.ids) && s.ids[i] == id {
		return i
	}
	return -1
}

// DistSq computes the squared weighted distance from q to row, with the
// same ascending-dimension accumulation order as core.WeightedDistance so
// math.Sqrt of the result is bit-identical to the exact-scan distance.
// A nil w means unit weights.
func (s *Store) DistSq(row int, q, w []float64) float64 {
	sum := 0.0
	if w == nil {
		for d := 0; d < s.dim; d++ {
			diff := q[d] - s.cols[d][row]
			sum += diff * diff
		}
		return sum
	}
	for d := 0; d < s.dim; d++ {
		diff := q[d] - s.cols[d][row]
		sum += w[d] * diff * diff
	}
	return sum
}

// buildLUT materializes the per-query lookup table: lut[d*qCells+c] is the
// weighted squared distance from q[d] to the nearest point of cell c, a
// lower bound on w[d]*(q[d]-x[d])^2 for every x quantized into that cell.
func (s *Store) buildLUT(q, w []float64) []float64 {
	lut := make([]float64, s.dim*qCells)
	for d := 0; d < s.dim; d++ {
		lo, step := s.qlo[d], s.qstep[d]
		wd := 1.0
		if w != nil {
			wd = w[d]
		}
		qd := q[d]
		row := lut[d*qCells : (d+1)*qCells]
		for c := 0; c < qCells; c++ {
			var diff float64
			if c > 0 { // cell 0 extends to -Inf
				if cellLo := lo + float64(c)*step; qd < cellLo {
					diff = cellLo - qd
				}
			}
			if c < qCells-1 { // top cell extends to +Inf
				if cellHi := lo + float64(c+1)*step; qd > cellHi {
					diff = qd - cellHi
				}
			}
			row[c] = wd * diff * diff
		}
	}
	return lut
}

// CoarseLowerBound2 evaluates the quantized lower bound for a single row
// the same way the block scan does. Exposed so property tests can assert
// bound safety (lb^2 <= true dist^2) row by row.
func (s *Store) CoarseLowerBound2(row int, q, w []float64) float64 {
	lut := s.buildLUT(q, w)
	sum := 0.0
	for d := 0; d < s.dim; d++ {
		sum += lut[d*qCells+int(s.qcols[d][row])]
	}
	return sum
}

func (s *Store) checkQuery(q, w []float64) error {
	if len(q) != s.dim {
		return fmt.Errorf("colstore: query has %d dims, store %v has %d", len(q), s.kind, s.dim)
	}
	if w != nil && len(w) != s.dim {
		return fmt.Errorf("colstore: weights have %d dims, store %v has %d", len(w), s.kind, s.dim)
	}
	return nil
}

// topkHeap is a bounded max-heap of (dist2, row) pairs ordered by
// (dist2, id) so the retained set matches the exact scan's tie-break.
type topkHeap struct {
	s     *Store
	dist2 []float64
	rows  []int
	k     int
}

func (h *topkHeap) less(i, j int) bool { // true when i sorts after j (max-heap)
	if h.dist2[i] != h.dist2[j] {
		return h.dist2[i] > h.dist2[j]
	}
	return h.s.ids[h.rows[i]] > h.s.ids[h.rows[j]]
}

func (h *topkHeap) swap(i, j int) {
	h.dist2[i], h.dist2[j] = h.dist2[j], h.dist2[i]
	h.rows[i], h.rows[j] = h.rows[j], h.rows[i]
}

func (h *topkHeap) down(i int) {
	n := len(h.rows)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h.swap(i, m)
		i = m
	}
}

func (h *topkHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

// offer considers (dist2, row) for membership in the retained top-k.
func (h *topkHeap) offer(dist2 float64, row int) {
	if len(h.rows) < h.k {
		h.dist2 = append(h.dist2, dist2)
		h.rows = append(h.rows, row)
		h.up(len(h.rows) - 1)
		return
	}
	// Replace the max when the candidate's (dist2, id) pair sorts first.
	if dist2 > h.dist2[0] {
		return
	}
	if dist2 == h.dist2[0] && h.s.ids[row] > h.s.ids[h.rows[0]] {
		return
	}
	h.dist2[0], h.rows[0] = dist2, row
	h.down(0)
}

// pruneBound2 is the squared distance above which a lower bound proves a
// row cannot enter the heap. +Inf until the heap is full.
func (h *topkHeap) pruneBound2() float64 {
	if len(h.rows) < h.k {
		return math.Inf(1)
	}
	return h.dist2[0]
}

// blockPool recycles the per-shard lower-bound buffers. Handing a buffer
// to the visitor through a func value forces it to the heap, and 8 KB to
// allocate and clear per shard per query costs about 5 % of search_scan's
// throughput (the repo benchmark, 50 000 rows).
var blockPool = sync.Pool{New: func() any { return new([blockRows]float64) }}

// scanBlocks is the one blocked scan every search runs on. Each shard
// walks its rows in blocks of at most blockRows, accumulates the block's
// quantized lower bounds column-at-a-time, and hands them to visit as
// lb2[i] = bound² of row lo+i. visit runs once per block, never per row,
// so the loops over rows stay free of indirect calls. One shard's blocks
// arrive in ascending order on one goroutine; shards run concurrently, so
// visit keeps its state per shard index. A single shard runs on the
// calling goroutine. Cancellation is checked between blocks.
func (s *Store) scanBlocks(ctx context.Context, lut []float64, shards []workpool.Shard, visit func(shard, lo int, lb2 []float64)) error {
	errs := make([]error, len(shards))
	runShard := func(si int) {
		sh := shards[si]
		acc := blockPool.Get().(*[blockRows]float64)
		defer blockPool.Put(acc)
		for lo := sh.Lo; lo < sh.Hi; lo += blockRows {
			if err := ctx.Err(); err != nil {
				errs[si] = err
				return
			}
			hi := lo + blockRows
			if hi > sh.Hi {
				hi = sh.Hi
			}
			blk := acc[:hi-lo]
			for d := 0; d < s.dim; d++ {
				lrow := (*[qCells]float64)(lut[d*qCells:]) // fixed size: lrow[c] needs no bounds check
				qc := s.qcols[d][lo:hi]
				if d == 0 {
					for i, c := range qc {
						blk[i] = lrow[c]
					}
					continue
				}
				// Four rows per iteration: the one-row loop is seven
				// instructions, and search_scan ran 20–25 % slower in
				// every build whose linker happened to lay it across a
				// 64-byte line.
				i := 0
				for ; i+4 <= len(qc); i += 4 {
					b, c := blk[i:i+4:i+4], qc[i:i+4:i+4]
					b[0] += lrow[c[0]]
					b[1] += lrow[c[1]]
					b[2] += lrow[c[2]]
					b[3] += lrow[c[3]]
				}
				for ; i < len(qc); i++ {
					blk[i] += lrow[qc[i]]
				}
			}
			visit(si, lo, blk)
		}
	}
	if len(shards) == 1 {
		runShard(0)
	} else {
		var wg sync.WaitGroup
		for si := range shards {
			wg.Add(1)
			go func(si int) {
				defer wg.Done()
				runShard(si)
			}(si)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// nextWithin returns the first index at or after i whose bound does not
// exceed bound2, or len(lb2). Nearly every row is pruned, so the visitors
// spend their time here; as a function of its own, free of calls, the loop
// keeps its index in a register.
//
//go:noinline
func nextWithin(lb2 []float64, i int, bound2 float64) int {
	for i < len(lb2) && lb2[i] > bound2 {
		i++
	}
	return i
}

// sortCandidates orders by (Dist, id) — the canonical result order.
func sortCandidates(out []Candidate) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].Rec.ID < out[j].Rec.ID
	})
}

// SearchTopK returns the exact k nearest rows to q under the weighted
// metric, ordered by (distance, id) — the same set, order, and bitwise
// distances an exhaustive scan over the snapshot would produce. The
// coarse quantized pass skips the exact kernel for every row whose lower
// bound exceeds the running k-th distance; the R-tree seeds that bound so
// pruning bites from the first block. workers shards the scan.
func (s *Store) SearchTopK(ctx context.Context, q, w []float64, k, workers int) ([]Candidate, Stats, error) {
	return s.topK(ctx, q, w, k, workers, false)
}

// SearchCoarseTopK serves the filter stage as the answer, with the exact
// re-rank skipped: the k rows with the smallest quantized lower bounds,
// ordered by (coarse distance, id). Each Dist is the square root of the
// row's bound, never above the true weighted distance, and the ranking is
// approximate. This is the brownout tier — one byte load and one table add
// per dimension per row, no float column traffic — and callers must mark
// responses produced this way as degraded.
func (s *Store) SearchCoarseTopK(ctx context.Context, q, w []float64, k, workers int) ([]Candidate, Stats, error) {
	return s.topK(ctx, q, w, k, workers, true)
}

func (s *Store) topK(ctx context.Context, q, w []float64, k, workers int, coarse bool) ([]Candidate, Stats, error) {
	var st Stats
	if err := s.checkQuery(q, w); err != nil {
		return nil, st, err
	}
	if k <= 0 || len(s.ids) == 0 {
		return nil, st, nil
	}
	if k > len(s.ids) {
		k = len(s.ids)
	}
	st.Rows = len(s.ids)

	// Seed the pruning bound with the exact k-th distance among the
	// tree's rows. The tree may cover only a prefix of the store (after
	// appends); a subset's k-th distance is >= the full set's, so the
	// seed can only be loose, never unsafe. The bound is recomputed from
	// the float columns rather than taken from the tree's sqrt'd result
	// so it is comparable with DistSq without rounding hazards. A coarse
	// search ranks bounds, which an exact distance cannot prune.
	seed2 := math.Inf(1)
	if !coarse && s.tree != nil && s.tree.Len() >= k {
		if nn := s.tree.NearestNeighborsWeighted(k, q, w); len(nn) == k {
			if row := s.rowOf(nn[k-1].ID); row >= 0 {
				seed2 = s.DistSq(row, q, w)
				st.TreeSeeded = true
			}
		}
	}

	shards := scanShards(workers, len(s.ids))
	heaps := make([]topkHeap, len(shards))
	for si := range heaps {
		heaps[si] = topkHeap{s: s, k: k}
	}
	evals := make([]int, len(shards))
	err := s.scanBlocks(ctx, s.buildLUT(q, w), shards, func(si, lo int, blk []float64) {
		h := &heaps[si]
		bound2 := seed2
		if hb := h.pruneBound2(); hb < bound2 {
			bound2 = hb
		}
		for i := nextWithin(blk, 0, bound2); i < len(blk); i = nextWithin(blk, i+1, bound2) {
			d2 := blk[i]
			if !coarse {
				d2 = s.DistSq(lo+i, q, w)
				evals[si]++
			}
			h.offer(d2, lo+i)
			if hb := h.pruneBound2(); hb < bound2 {
				bound2 = hb
			}
		}
	})
	if err != nil {
		return nil, st, err
	}

	// Merge the shard heaps into the global top-k. Candidates carry the
	// squared distance until the cut so the order is the one the heaps
	// ranked by; the square root is taken once per emitted row.
	var out []Candidate
	for si := range heaps {
		st.ExactEvals += evals[si]
		h := &heaps[si]
		for i, row := range h.rows {
			out = append(out, Candidate{Rec: s.recs[row], Dist: h.dist2[i]})
		}
	}
	sortCandidates(out)
	if len(out) > k {
		out = out[:k]
	}
	for i := range out {
		out[i].Dist = math.Sqrt(out[i].Dist)
	}
	return out, st, nil
}

// SearchRadius returns every row within radius of q under the weighted
// metric (distance <= radius), ordered by (distance, id). The coarse pass
// prunes with a hair of slack so borderline rows are always re-checked by
// the exact kernel; callers applying a different boundary predicate (e.g.
// a similarity threshold) should pass a radius with their own margin and
// re-filter. A negative radius returns nothing; +Inf returns every row.
func (s *Store) SearchRadius(ctx context.Context, q, w []float64, radius float64, workers int) ([]Candidate, Stats, error) {
	return s.withinRadius(ctx, q, w, radius, workers, false)
}

// SearchCoarseRadius returns every row whose quantized lower bound is
// within radius of q, ordered by (coarse distance, id). Because the bound
// is a lower bound, the set is a superset of the true radius result —
// rows are missed never, over-included sometimes, and distances read low.
func (s *Store) SearchCoarseRadius(ctx context.Context, q, w []float64, radius float64, workers int) ([]Candidate, Stats, error) {
	return s.withinRadius(ctx, q, w, radius, workers, true)
}

func (s *Store) withinRadius(ctx context.Context, q, w []float64, radius float64, workers int, coarse bool) ([]Candidate, Stats, error) {
	var st Stats
	if err := s.checkQuery(q, w); err != nil {
		return nil, st, err
	}
	if len(s.ids) == 0 || radius < 0 || math.IsNaN(radius) {
		return nil, st, nil
	}
	st.Rows = len(s.ids)
	bound2 := radius * radius
	shards := scanShards(workers, len(s.ids))
	parts := make([][]Candidate, len(shards))
	evals := make([]int, len(shards))
	err := s.scanBlocks(ctx, s.buildLUT(q, w), shards, func(si, lo int, blk []float64) {
		for i := nextWithin(blk, 0, bound2); i < len(blk); i = nextWithin(blk, i+1, bound2) {
			d2 := blk[i]
			if !coarse {
				d2 = s.DistSq(lo+i, q, w)
				evals[si]++
			}
			if d := math.Sqrt(d2); coarse || d <= radius {
				parts[si] = append(parts[si], Candidate{Rec: s.recs[lo+i], Dist: d})
			}
		}
	})
	if err != nil {
		return nil, st, err
	}
	var out []Candidate
	for si := range parts {
		st.ExactEvals += evals[si]
		out = append(out, parts[si]...)
	}
	sortCandidates(out)
	return out, st, nil
}

// scanShards splits n rows across workers, collapsing to a single inline
// shard when parallelism cannot pay for itself.
func scanShards(workers, n int) []workpool.Shard {
	if n <= blockRows {
		return []workpool.Shard{{Lo: 0, Hi: n}}
	}
	return workpool.Shards(workers, n)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Manager publishes per-kind stores kept in sync with a DB. Queries call
// Store, which refreshes lazily when the DB's version moved; Watch keeps
// the refresh off the query path by rebuilding as commits land.
type Manager struct {
	db    *shapedb.DB
	mu    sync.Mutex
	slots map[features.Kind]*slot
}

type slot struct {
	mu  sync.Mutex // serializes rebuilds of one kind
	cur atomic.Pointer[Store]
}

// NewManager returns a Manager over db with no stores built yet.
func NewManager(db *shapedb.DB) *Manager {
	return &Manager{db: db, slots: make(map[features.Kind]*slot)}
}

// ErrNoDB is returned by Store when the manager has no backing database.
var ErrNoDB = errors.New("colstore: manager has no database")

func (m *Manager) slot(kind features.Kind) *slot {
	m.mu.Lock()
	defer m.mu.Unlock()
	sl, ok := m.slots[kind]
	if !ok {
		sl = &slot{}
		m.slots[kind] = sl
	}
	return sl
}

// Store returns a store for kind whose snapshot is no older than the DB
// version observed on entry, building or refreshing it if needed. The
// returned store is immutable and safe for concurrent searches.
func (m *Manager) Store(kind features.Kind) (*Store, error) {
	if m == nil || m.db == nil {
		return nil, ErrNoDB
	}
	if !kind.Valid() {
		return nil, fmt.Errorf("colstore: invalid feature kind %d", int(kind))
	}
	sl := m.slot(kind)
	if s := sl.cur.Load(); s != nil && s.version == m.db.Version() {
		return s, nil
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	recs, ver := m.db.SnapshotVersion()
	if s := sl.cur.Load(); s != nil && s.version == ver {
		return s, nil
	}
	s, err := build(kind, m.db.Options().Dim(kind), recs, ver, sl.cur.Load())
	if err != nil {
		return nil, err
	}
	sl.cur.Store(s)
	return s, nil
}

// Cached returns the current store for kind without refreshing, or nil.
func (m *Manager) Cached(kind features.Kind) *Store {
	if m == nil || m.db == nil {
		return nil
	}
	return m.slot(kind).cur.Load()
}

// Watch rebuilds stale stores as DB commits land, until ctx is done. Only
// kinds that have been requested at least once (via Store or a prior Watch
// refresh of them) are maintained. Safe to run concurrently with queries;
// query-time staleness checks in Store remain the correctness path, Watch
// just moves the rebuild cost off it.
func (m *Manager) Watch(ctx context.Context) {
	if m == nil || m.db == nil {
		return
	}
	for {
		// Grab the notification channel before reading versions so a
		// commit between the check and the wait still wakes us.
		ch := m.db.CommitNotify()
		m.refreshStale()
		select {
		case <-ctx.Done():
			return
		case <-ch:
		}
	}
}

func (m *Manager) refreshStale() {
	m.mu.Lock()
	kinds := make([]features.Kind, 0, len(m.slots))
	for k := range m.slots {
		kinds = append(kinds, k)
	}
	m.mu.Unlock()
	for _, k := range kinds {
		// Store re-checks staleness under the slot lock.
		_, _ = m.Store(k)
	}
}
