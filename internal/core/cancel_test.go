package core

import (
	"context"
	"errors"
	"testing"

	"threedess/internal/features"
	"threedess/internal/geom"
)

// cancelled returns an already-dead context.
func cancelled() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestSearchesRejectCancelledContext(t *testing.T) {
	db, _ := synthDB(t)
	e := NewEngine(db)
	q := queryAt(t, db, 0, 0)
	ctx := cancelled()

	if _, err := e.SearchTopK(ctx, q, Options{Feature: features.PrincipalMoments, K: 3}); !errors.Is(err, context.Canceled) {
		t.Errorf("SearchTopK err = %v", err)
	}
	if _, err := e.SearchThreshold(ctx, q, Options{Feature: features.PrincipalMoments, Threshold: 0.5}); !errors.Is(err, context.Canceled) {
		t.Errorf("SearchThreshold err = %v", err)
	}
	if _, err := e.SearchMultiStep(ctx, q, MultiStepOptions{
		Steps: []Step{{Feature: features.PrincipalMoments}},
	}); !errors.Is(err, context.Canceled) {
		t.Errorf("SearchMultiStep err = %v", err)
	}
	if _, err := e.SearchCombined(ctx, q, map[features.Kind]float64{features.PrincipalMoments: 1}, 3); !errors.Is(err, context.Canceled) {
		t.Errorf("SearchCombined err = %v", err)
	}
}

// TestScanHonorsCancellationOnLargeCorpus runs the weighted (indexless)
// path, which walks every record, under a dead context.
func TestScanHonorsCancellationOnLargeCorpus(t *testing.T) {
	db, _ := synthDB(t)
	e := NewEngine(db)
	opts := db.Options()
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))
	dim := opts.Dim(features.PrincipalMoments)
	for i := 0; i < 300; i++ {
		set := features.Set{}
		for _, k := range features.CoreKinds {
			v := make(features.Vector, opts.Dim(k))
			for d := range v {
				v[d] = float64(i % 17)
			}
			set[k] = v
		}
		if _, err := db.Insert("bulk", 5, mesh, set); err != nil {
			t.Fatal(err)
		}
	}
	q := queryAt(t, db, 0, 0)
	weights := make([]float64, dim)
	for i := range weights {
		weights[i] = 1
	}
	// Weighted search forces the columnar scan rather than the index.
	_, err := e.SearchTopK(cancelled(), q, Options{Feature: features.PrincipalMoments, K: 5, Weights: weights})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("weighted scan under dead ctx: err = %v", err)
	}
}

func TestInsertBatchCancelledStoresNothing(t *testing.T) {
	db, _ := synthDB(t)
	e := NewEngine(db)
	before := db.Len()
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(2, 1, 1))
	shapes := []IngestShape{
		{Name: "x0", Group: 1, Mesh: mesh},
		{Name: "x1", Group: 1, Mesh: mesh},
	}
	ids, err := e.InsertBatch(cancelled(), shapes, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(ids) != 0 {
		t.Errorf("ids = %v for a cancelled batch", ids)
	}
	if db.Len() != before {
		t.Errorf("cancelled batch stored %d shapes", db.Len()-before)
	}
}

func TestExtractBatchCancelled(t *testing.T) {
	db, _ := synthDB(t)
	e := NewEngine(db)
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(2, 1, 1))
	if _, err := e.ExtractBatch(cancelled(), []*geom.Mesh{mesh, mesh}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
