package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"threedess/internal/features"
	"threedess/internal/geom"
	"threedess/internal/shapedb"
)

// synthScanDB builds a DB of n records with deterministic but scattered
// feature vectors of every core kind.
func synthScanDB(t *testing.T, n int) *shapedb.DB {
	t.Helper()
	db, err := shapedb.Open("", features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	opts := db.Options()
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))
	for i := 0; i < n; i++ {
		set := features.Set{}
		for _, k := range features.CoreKinds {
			v := make(features.Vector, opts.Dim(k))
			for d := range v {
				v[d] = 10 * math.Sin(float64(i*31+d*7+int(k)*13))
			}
			set[k] = v
		}
		if _, err := db.Insert("s", i%5, mesh, set); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestWeightedScanDimensionMismatch checks both ways a dimension mismatch
// can reach the weighted scan surface as an error, never as a wrong
// answer: a short query against healthy columns, and a stored vector of
// the wrong length (InsertFull rejects those at the door, so the test
// plants one in a snapshot record) failing the column build.
func TestWeightedScanDimensionMismatch(t *testing.T) {
	db := synthScanDB(t, 100)
	dim := db.Options().Dim(features.PrincipalMoments)
	e := NewEngine(db).SetWorkers(4)
	// checkOptions validates weights against the query; the store
	// validates the query against its columns.
	short := features.Set{features.PrincipalMoments: make(features.Vector, dim-1)}
	if _, err := e.SearchTopK(context.Background(), short, Options{Feature: features.PrincipalMoments, Weights: make([]float64, dim-1), K: 5}); err == nil {
		t.Error("short query vector not reported")
	}

	rec := db.Snapshot()[40]
	rec.Features[features.PrincipalMoments] = rec.Features[features.PrincipalMoments][:dim-1]
	query := features.Set{features.PrincipalMoments: make(features.Vector, dim)}
	opt := Options{Feature: features.PrincipalMoments, Weights: make([]float64, dim), K: 5, Threshold: 0.5}
	fresh := NewEngine(db).SetWorkers(4) // e's columns were built before the damage
	if _, err := fresh.SearchTopK(context.Background(), query, opt); err == nil {
		t.Error("wrong-dimension stored vector not reported by top-k")
	}
	if _, err := fresh.SearchThreshold(context.Background(), query, opt); err == nil {
		t.Error("wrong-dimension stored vector not reported by threshold search")
	}
}

// TestConcurrentInsertSearchDelete runs Insert, SearchTopK (both the
// indexed and the weighted columnar path), and Delete concurrently;
// under -race this is the engine's concurrency smoke test.
func TestConcurrentInsertSearchDelete(t *testing.T) {
	db := synthScanDB(t, 150)
	e := NewEngine(db).SetWorkers(4)
	opts := db.Options()
	dim := opts.Dim(features.PrincipalMoments)
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))
	query := features.Set{features.PrincipalMoments: make(features.Vector, dim)}
	weights := make([]float64, dim)
	for i := range weights {
		weights[i] = 2
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writers: inserts with fresh feature sets.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				set := features.Set{}
				for _, k := range features.CoreKinds {
					v := make(features.Vector, opts.Dim(k))
					for d := range v {
						v[d] = float64(w*1000 + i + d)
					}
					set[k] = v
				}
				if _, err := db.Insert("w", 0, mesh, set); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Deleter: removes some of the seed records.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, id := range db.IDs()[:40] {
			if _, err := db.Delete(id); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Searchers: indexed and weighted-scan paths.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := e.SearchTopK(context.Background(), query, Options{Feature: features.PrincipalMoments, K: 5}); err != nil {
					t.Error(err)
					return
				}
				if _, err := e.SearchTopK(context.Background(), query, Options{Feature: features.PrincipalMoments, Weights: weights, K: 5}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if want := 150 + 2*40 - 40; db.Len() != want {
		t.Errorf("Len = %d, want %d", db.Len(), want)
	}
}

// TestInsertBatchDeterministicAcrossWorkers runs a real-extraction batch
// at workers=1 and workers=8 and asserts bit-identical IDs and feature
// sets (the reproducibility guarantee of the parallel ingest path).
func TestInsertBatchDeterministicAcrossWorkers(t *testing.T) {
	var shapes []IngestShape
	for i := 0; i < 5; i++ {
		m := geom.Box(geom.V(0, 0, 0), geom.V(1+float64(i), 1, 1))
		m.Merge(geom.Box(geom.V(0, 1, 0), geom.V(1, 2+float64(i%2), 1)))
		shapes = append(shapes, IngestShape{Name: "part", Group: i % 3, Mesh: m})
	}
	run := func(workers int) (*shapedb.DB, []int64) {
		db, err := shapedb.Open("", features.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		ids, err := NewEngine(db).InsertBatch(context.Background(), shapes, nil)
		if err != nil {
			t.Fatal(err)
		}
		return db, ids
	}
	db1, ids1 := run(1)
	db8, ids8 := run(8)
	if len(ids1) != len(shapes) || len(ids8) != len(shapes) {
		t.Fatalf("ids = %d / %d, want %d", len(ids1), len(ids8), len(shapes))
	}
	for i := range ids1 {
		if ids1[i] != ids8[i] {
			t.Errorf("id[%d]: workers=1 %d, workers=8 %d", i, ids1[i], ids8[i])
		}
		r1, ok1 := db1.Get(ids1[i])
		r8, ok8 := db8.Get(ids8[i])
		if !ok1 || !ok8 {
			t.Fatalf("record %d missing", i)
		}
		if len(r1.Features) != len(r8.Features) {
			t.Fatalf("feature sets differ in size at %d", i)
		}
		for k, v1 := range r1.Features {
			v8 := r8.Features[k]
			if len(v1) != len(v8) {
				t.Fatalf("%v dim differs at %d", k, i)
			}
			for d := range v1 {
				if v1[d] != v8[d] {
					t.Errorf("shape %d %v[%d]: workers=1 %v, workers=8 %v", i, k, d, v1[d], v8[d])
				}
			}
		}
	}
}

// TestInsertBatchExtractionError asserts a bad mesh fails the whole batch
// before anything is stored.
func TestInsertBatchExtractionError(t *testing.T) {
	db, err := shapedb.Open("", features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	good := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))
	shapes := []IngestShape{
		{Name: "ok", Mesh: good},
		{Name: "bad", Mesh: nil},
	}
	if _, err := NewEngine(db).InsertBatch(context.Background(), shapes, nil); err == nil {
		t.Fatal("nil mesh accepted")
	}
	if db.Len() != 0 {
		t.Errorf("partial batch stored: Len = %d", db.Len())
	}
}
