package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"threedess/internal/features"
	"threedess/internal/geom"
	"threedess/internal/shapedb"
)

// bruteForce is the independent reference every search is checked
// against: Equation 4.3 over each of recs that carries the kind, Equation
// 4.4 under the diagonal of those same records' bounding box, ordered by
// (distance, id). It shares nothing with the columnar path but
// WeightedDistance itself.
func bruteForce(recs []*shapedb.Record, kind features.Kind, qv features.Vector, w []float64) []Result {
	var lo, hi features.Vector
	for _, rec := range recs {
		xv, ok := rec.Features[kind]
		if !ok {
			continue
		}
		if lo == nil {
			lo, hi = xv.Clone(), xv.Clone()
		}
		for d, x := range xv {
			lo[d], hi[d] = math.Min(lo[d], x), math.Max(hi[d], x)
		}
	}
	sum := 0.0
	for d := range lo {
		sum += (hi[d] - lo[d]) * (hi[d] - lo[d])
	}
	dmax := math.Max(math.Sqrt(sum), 1e-12)
	var out []Result
	for _, rec := range recs {
		xv, ok := rec.Features[kind]
		if !ok {
			continue
		}
		d := WeightedDistance(qv, xv, w)
		out = append(out, Result{ID: rec.ID, Name: rec.Name, Group: rec.Group, Distance: d, Similarity: Similarity(d, dmax)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// randomScanDB fills a DB (in memory when dir is empty) with n records
// whose principal-moment vectors sit on a coarse integer grid (so
// exact-distance ties occur constantly) and sprinkles in records that lack
// the kind entirely, which a principal-moment search must skip.
func randomScanDB(t *testing.T, rng *rand.Rand, dir string, n int) *shapedb.DB {
	t.Helper()
	db, err := shapedb.Open(dir, features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	opts := db.Options()
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))
	pmDim := opts.Dim(features.PrincipalMoments)
	gpDim := opts.Dim(features.GeometricParams)
	for i := 0; i < n; i++ {
		set := features.Set{}
		if i%11 == 3 {
			v := make(features.Vector, gpDim)
			for d := range v {
				v[d] = rng.Float64() * 10
			}
			set[features.GeometricParams] = v
		} else {
			v := make(features.Vector, pmDim)
			for d := range v {
				v[d] = float64(rng.Intn(8))
			}
			set[features.PrincipalMoments] = v
		}
		if _, err := db.Insert("r", i%7, mesh, set); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// pmQuery draws a random principal-moment query and one weight vector of
// each shape the scan must handle: uniform, random, zero-containing, and
// nil (unweighted, which bruteForce ranks as uniform).
func pmQuery(rng *rand.Rand, db *shapedb.DB) (features.Set, [][]float64) {
	dim := db.Options().Dim(features.PrincipalMoments)
	v := make(features.Vector, dim)
	uniform, random, zeroed := make([]float64, dim), make([]float64, dim), make([]float64, dim)
	for d := range v {
		v[d] = rng.Float64() * 8
		uniform[d] = 1
		random[d] = rng.Float64() * 3
		zeroed[d] = rng.Float64() * 3
	}
	zeroed[rng.Intn(dim)] = 0
	return features.Set{features.PrincipalMoments: v}, [][]float64{uniform, random, zeroed, nil}
}

// assertSearch runs one search in every mode against its brute-force
// answer. ScanAuto and ScanExact must equal want exactly, and so must
// ScanCoarse when the search is unweighted: an unweighted answer is never
// coarse. A weighted ScanCoarse must keep its two promises: no Distance
// above the row's true one (all is the full brute-force ranking), and the
// same row count (top-k) or a superset of want (threshold).
func assertSearch(t *testing.T, label string, search func(context.Context, features.Set, Options) ([]Result, error),
	query features.Set, opt Options, want, all []Result, superset bool) {
	t.Helper()
	exact := []ScanMode{ScanAuto, ScanExact}
	if opt.Weights == nil {
		exact = append(exact, ScanCoarse)
	}
	for _, opt.Mode = range exact {
		got, err := search(context.Background(), query, opt)
		if err != nil {
			t.Fatalf("%s %v: %v", label, opt.Mode, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %v diverged from brute force\ngot:  %+v\nwant: %+v", label, opt.Mode, got, want)
		}
	}
	opt.Mode = ScanCoarse
	coarse, err := search(context.Background(), query, opt)
	if err != nil {
		t.Fatalf("%s coarse: %v", label, err)
	}
	truth := make(map[int64]float64, len(all))
	for _, r := range all {
		truth[r.ID] = r.Distance
	}
	got := make(map[int64]bool, len(coarse))
	for _, r := range coarse {
		if d, ok := truth[r.ID]; !ok || r.Distance > d {
			t.Fatalf("%s: coarse row %d distance %g, true %g (known %v)", label, r.ID, r.Distance, d, ok)
		}
		got[r.ID] = true
	}
	if !superset && len(coarse) != len(want) {
		t.Fatalf("%s: coarse returned %d rows, exact %d", label, len(coarse), len(want))
	}
	for _, r := range want {
		if superset && !got[r.ID] {
			t.Fatalf("%s: coarse threshold answer misses row %d", label, r.ID)
		}
	}
}

// TestWeightedSearchMatchesBruteForce is the equivalence gate for the one
// scan path: across corpora (empty, tiny, tie-ridden, multi-block, mutated
// under the engines' feet), weight shapes (nil included), worker counts, K
// (including far beyond the corpus) and thresholds (including both
// boundaries: t=0 keeps every record, t=1 only exact hits), the exact
// modes must return the brute-force ranking — same ids, same order,
// bitwise-identical distances and similarities.
func TestWeightedSearchMatchesBruteForce(t *testing.T) {
	const kind = features.PrincipalMoments
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))
	type step struct {
		name   string
		mutate func(t *testing.T, rng *rand.Rand, db *shapedb.DB)
		reopen bool // close the DB and replay its journal into a new one
	}
	cases := []struct {
		name    string
		n       int
		durable bool // compaction needs a journal
		steps   []step
	}{
		{name: "empty"},
		{name: "one", n: 1},
		{name: "two", n: 2},
		{name: "ties", n: 180},
		{name: "multi-block", n: 3000}, // past one coarse block, so shards fan out
		{name: "mutated", n: 200, durable: true, steps: []step{
			{name: "out-of-grid appends", mutate: func(t *testing.T, rng *rand.Rand, db *shapedb.DB) {
				// Far outside the built quantization grid: the append path
				// must clamp into the half-infinite edge cells safely.
				for i := 0; i < 40; i++ {
					v := make(features.Vector, db.Options().Dim(kind))
					for d := range v {
						v[d] = 100 + rng.Float64()*50
					}
					if _, err := db.Insert("late", 3, mesh, features.Set{kind: v}); err != nil {
						t.Fatal(err)
					}
				}
			}},
			{name: "delete the extremes", mutate: func(t *testing.T, _ *rand.Rand, db *shapedb.DB) {
				// The out-of-grid appends span the box; once they are gone
				// the normalizer must shrink back to the grid's diagonal.
				for _, rec := range db.Snapshot() {
					if v, ok := rec.Features[kind]; ok && v[0] >= 100 {
						if _, err := db.Delete(rec.ID); err != nil {
							t.Fatal(err)
						}
					}
				}
			}},
			{name: "deletes", mutate: func(t *testing.T, _ *rand.Rand, db *shapedb.DB) {
				for _, id := range db.IDs()[:30] {
					if _, err := db.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
			}},
			{name: "quarantine", mutate: func(t *testing.T, _ *rand.Rand, db *shapedb.DB) {
				for _, id := range db.IDs()[:3] {
					if !db.Quarantine(id, shapedb.ScrubBitRot, "test") {
						t.Fatalf("record %d was not live", id)
					}
				}
			}},
			{name: "compaction", mutate: func(t *testing.T, _ *rand.Rand, db *shapedb.DB) {
				if err := db.Compact(); err != nil {
					t.Fatal(err)
				}
			}},
			// The compacted journal never saw the deleted extremes: the
			// replayed node must rank and normalize exactly as the live one.
			{name: "reopen", reopen: true},
		}},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(11 + ci)))
			dir := ""
			if tc.durable {
				dir = t.TempDir()
			}
			db := randomScanDB(t, rng, dir, tc.n)
			// The engines outlive the mutations, so their columnar stores
			// must notice every one of them.
			var engines []*Engine
			newEngines := func() {
				engines = nil
				for _, workers := range []int{1, 2, 8} {
					engines = append(engines, NewEngine(db).SetWorkers(workers))
				}
			}
			newEngines()
			check := func(stage string) {
				t.Helper()
				query, weights := pmQuery(rng, db)
				for wi, w := range weights {
					all := bruteForce(db.Snapshot(), kind, query[kind], w)
					for _, e := range engines {
						label := fmt.Sprintf("%s, weights #%d, %d workers", stage, wi, e.workers)
						for _, k := range []int{1, 3, 10, len(all) + 10} {
							want := all[:min(k, len(all))] // nil, like the engine's, when all is
							assertSearch(t, fmt.Sprintf("%s, k=%d", label, k), e.SearchTopK, query,
								Options{Feature: kind, Weights: w, K: k}, want, all, false)
						}
						for _, th := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
							var want []Result
							for _, r := range all {
								if r.Similarity >= th {
									want = append(want, r)
								}
							}
							assertSearch(t, fmt.Sprintf("%s, t=%g", label, th), e.SearchThreshold, query,
								Options{Feature: kind, Weights: w, Threshold: th}, want, all, true)
						}
					}
				}
			}
			check("initial")
			for _, st := range tc.steps {
				if st.reopen {
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
					var err error
					if db, err = shapedb.Open(dir, features.Options{}); err != nil {
						t.Fatal(err)
					}
					defer db.Close()
					newEngines()
				} else {
					st.mutate(t, rng, db)
				}
				check("after " + st.name)
			}
		})
	}
}

// TestIndexedSearchAnswersFromItsSnapshot pins the unweighted search to
// the column snapshot it normalizes by: a commit after the snapshot was
// taken must not leak into the answer, and every row, distance and
// similarity is the snapshot's.
func TestIndexedSearchAnswersFromItsSnapshot(t *testing.T) {
	const kind = features.PrincipalMoments
	rng := rand.New(rand.NewSource(30))
	db, err := shapedb.Open("", features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))
	insert := func(v features.Vector) {
		t.Helper()
		if _, err := db.Insert("r", 0, mesh, features.Set{kind: v}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ { // continuous coordinates: no distance ties
		insert(features.Vector{rng.Float64(), rng.Float64(), rng.Float64()})
	}
	e := NewEngine(db)
	qv := features.Vector{0.4, 0.5, 0.6}

	check := func(stage string) {
		t.Helper()
		st, err := e.cstore.Store(kind)
		if err != nil {
			t.Fatal(err)
		}
		if stage == "after a box-expanding commit" {
			insert(features.Vector{50, 50, 50})
		}
		all := bruteForce(st.Records(), kind, qv, nil)
		for _, k := range []int{1, 10, len(all) + 5} {
			got, err := e.searchTopK(context.Background(), st, qv, Options{Feature: kind, K: k})
			if err != nil {
				t.Fatal(err)
			}
			if want := all[:min(k, len(all))]; !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, top-%d: answer is not the snapshot's\ngot:  %+v\nwant: %+v", stage, k, got, want)
			}
		}
		for _, th := range []float64{0, 0.5, 0.9} {
			got, err := e.searchThreshold(context.Background(), st, qv, Options{Feature: kind, Threshold: th})
			if err != nil {
				t.Fatal(err)
			}
			want := []Result{}
			for _, r := range all {
				if r.Similarity >= th {
					want = append(want, r)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, t=%g: answer is not the snapshot's\ngot:  %+v\nwant: %+v", stage, th, got, want)
			}
		}
	}
	check("quiescent")
	check("after a box-expanding commit")
}

// trippingCtx reports itself alive for the first Err call (the engine's
// entry check) and cancelled afterwards, so cancellation lands inside the
// block scan rather than before it.
type trippingCtx struct {
	context.Context
	calls atomic.Int32
}

func (c *trippingCtx) Err() error {
	if c.calls.Add(1) > 1 {
		return context.Canceled
	}
	return nil
}

func TestWeightedScanHonorsMidScanCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	db := randomScanDB(t, rng, "", 2500) // > one coarse block
	e := NewEngine(db)
	query, weights := pmQuery(rng, db)
	for _, mode := range []ScanMode{ScanAuto, ScanCoarse} {
		opt := Options{Feature: features.PrincipalMoments, Weights: weights[1], K: 5, Threshold: 0.5, Mode: mode}
		if _, err := e.SearchTopK(&trippingCtx{Context: context.Background()}, query, opt); !errors.Is(err, context.Canceled) {
			t.Errorf("%v top-k mid-scan cancel: err = %v, want context.Canceled", mode, err)
		}
		if _, err := e.SearchThreshold(&trippingCtx{Context: context.Background()}, query, opt); !errors.Is(err, context.Canceled) {
			t.Errorf("%v threshold mid-scan cancel: err = %v, want context.Canceled", mode, err)
		}
	}
}

func TestParseScanMode(t *testing.T) {
	for in, want := range map[string]ScanMode{
		"": ScanAuto, "auto": ScanAuto, "exact": ScanExact, "coarse": ScanCoarse,
		"two-stage": ScanAuto, "twostage": ScanAuto, "two_stage": ScanAuto,
	} {
		got, err := ParseScanMode(in)
		if err != nil || got != want {
			t.Errorf("ParseScanMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseScanMode("bogus"); err == nil {
		t.Error("ParseScanMode(bogus) accepted")
	}
	if ScanCoarse.String() != "coarse" || ScanExact.String() != "exact" || ScanAuto.String() != "auto" {
		t.Error("ScanMode.String mismatch")
	}
}
