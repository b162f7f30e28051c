package colstore

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"threedess/internal/features"
	"threedess/internal/geom"
	"threedess/internal/shapedb"
)

const testKind = features.PrincipalMoments

func openDB(t *testing.T, dir string) *shapedb.DB {
	t.Helper()
	db, err := shapedb.Open(dir, features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func insertVec(t *testing.T, db *shapedb.DB, v features.Vector) int64 {
	t.Helper()
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))
	id, err := db.Insert("v", 0, mesh, features.Set{testKind: v})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func randVec(rng *rand.Rand, dim int, spread float64) features.Vector {
	v := make(features.Vector, dim)
	for d := range v {
		v[d] = (rng.Float64() - 0.5) * spread
	}
	return v
}

// TestCoarseBoundNeverExceedsTrueDistance is the safety property the whole
// two-stage design rests on: for every row, query, and weighting — across
// spread-out, clustered, constant-dimension, and out-of-grid appended
// data — the quantized lower bound must not exceed the exact squared
// distance, or a true top-k member could be pruned.
func TestCoarseBoundNeverExceedsTrueDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	db := openDB(t, "")
	dim := db.Options().Dim(testKind)
	spreads := []float64{1e-9, 1, 1000, 1e9}
	for i := 0; i < 400; i++ {
		v := randVec(rng, dim, spreads[i%len(spreads)])
		if i%17 == 0 {
			v[rng.Intn(dim)] = 42 // recurring exact value → near-constant dim
		}
		insertVec(t, db, v)
	}
	mgr := NewManager(db)
	st, err := mgr.Store(testKind)
	if err != nil {
		t.Fatal(err)
	}
	// Appends quantize into the existing grid; out-of-range values land in
	// the half-infinite edge cells and must stay safe.
	for i := 0; i < 50; i++ {
		insertVec(t, db, randVec(rng, dim, 1e12))
	}
	if st, err = mgr.Store(testKind); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		q := randVec(rng, dim, spreads[trial%len(spreads)]*2)
		w := make([]float64, dim)
		for d := range w {
			w[d] = rng.Float64() * 5
		}
		if trial%3 == 0 {
			w = nil
		}
		for row := 0; row < st.Len(); row++ {
			lb2 := st.CoarseLowerBound2(row, q, w)
			d2 := st.DistSq(row, q, w)
			if lb2 > d2 {
				t.Fatalf("trial %d row %d: lower bound %g exceeds true dist² %g", trial, row, lb2, d2)
			}
		}
	}
}

// bruteTopK ranks every row exactly with the store's own kernel.
func bruteTopK(st *Store, q, w []float64, k int) []Candidate {
	type rowDist struct {
		row int
		d2  float64
	}
	all := make([]rowDist, st.Len())
	for i := range all {
		all[i] = rowDist{i, st.DistSq(i, q, w)}
	}
	for i := 1; i < len(all); i++ { // insertion sort keeps the test dependency-free
		for j := i; j > 0 && (all[j].d2 < all[j-1].d2 ||
			(all[j].d2 == all[j-1].d2 && st.ids[all[j].row] < st.ids[all[j-1].row])); j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	if len(all) > k {
		all = all[:k]
	}
	out := make([]Candidate, len(all))
	for i, rd := range all {
		out[i] = Candidate{Rec: st.recs[rd.row], Dist: math.Sqrt(rd.d2)}
	}
	return out
}

func TestSearchTopKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	db := openDB(t, "")
	dim := db.Options().Dim(testKind)
	for i := 0; i < 500; i++ {
		v := make(features.Vector, dim)
		for d := range v {
			v[d] = float64(rng.Intn(6)) // coarse grid → constant ties
		}
		insertVec(t, db, v)
	}
	st, err := NewManager(db).Store(testKind)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		q := randVec(rng, dim, 12)
		w := make([]float64, dim)
		for d := range w {
			w[d] = rng.Float64() * 3
		}
		k := 1 + rng.Intn(30)
		for _, workers := range []int{1, 4} {
			got, stats, err := st.SearchTopK(context.Background(), q, w, k, workers)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteTopK(st, q, w, k)
			if len(got) != len(want) {
				t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
			}
			for i := range got {
				if got[i].Rec.ID != want[i].Rec.ID || got[i].Dist != want[i].Dist {
					t.Fatalf("trial %d workers=%d: result %d = (%d, %v), want (%d, %v)",
						trial, workers, i, got[i].Rec.ID, got[i].Dist, want[i].Rec.ID, want[i].Dist)
				}
			}
			if stats.ExactEvals > stats.Rows {
				t.Fatalf("trial %d: %d exact evals over %d rows", trial, stats.ExactEvals, stats.Rows)
			}
		}
	}
}

func TestSearchRadiusMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := openDB(t, "")
	dim := db.Options().Dim(testKind)
	for i := 0; i < 300; i++ {
		insertVec(t, db, randVec(rng, dim, 10))
	}
	st, err := NewManager(db).Store(testKind)
	if err != nil {
		t.Fatal(err)
	}
	q := randVec(rng, dim, 10)
	w := []float64{2, 0.5, 1}[:dim]
	for _, radius := range []float64{0, 0.5, 3, 20, math.Inf(1)} {
		got, _, err := st.SearchRadius(context.Background(), q, w, radius, 2)
		if err != nil {
			t.Fatal(err)
		}
		var want []Candidate
		for _, c := range bruteTopK(st, q, w, st.Len()) {
			if c.Dist <= radius {
				want = append(want, c)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("radius %g: %d results, want %d", radius, len(got), len(want))
		}
		for i := range got {
			if got[i].Rec.ID != want[i].Rec.ID || got[i].Dist != want[i].Dist {
				t.Fatalf("radius %g: result %d mismatch", radius, i)
			}
		}
	}
}

// TestAppendFastPathSharesTree pins the incremental maintenance contract:
// a small append publishes a new store that reuses the previous grid and
// seeding tree (which then covers a prefix), while a large append or a
// delete forces a full rebuild.
func TestAppendFastPathSharesTree(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	db := openDB(t, "")
	dim := db.Options().Dim(testKind)
	for i := 0; i < 100; i++ {
		insertVec(t, db, randVec(rng, dim, 5))
	}
	mgr := NewManager(db)
	s1, err := mgr.Store(testKind)
	if err != nil {
		t.Fatal(err)
	}
	var lastID int64
	for i := 0; i < 20; i++ {
		lastID = insertVec(t, db, randVec(rng, dim, 5))
	}
	s2, err := mgr.Store(testKind)
	if err != nil {
		t.Fatal(err)
	}
	if s2 == s1 {
		t.Fatal("store not republished after insert")
	}
	if s2.tree != s1.tree || s2.treeRows != s1.Len() {
		t.Errorf("small append rebuilt the tree (treeRows %d, prev len %d)", s2.treeRows, s1.Len())
	}
	if s2.Len() != 120 {
		t.Errorf("appended store has %d rows, want 120", s2.Len())
	}
	if _, err := db.Delete(lastID); err != nil {
		t.Fatal(err)
	}
	s3, err := mgr.Store(testKind)
	if err != nil {
		t.Fatal(err)
	}
	if s3.tree == s2.tree {
		t.Error("delete did not force a full rebuild")
	}
	if s3.treeRows != s3.Len() || s3.Len() != 119 {
		t.Errorf("rebuilt store: treeRows %d, len %d, want both 119", s3.treeRows, s3.Len())
	}
	if got := db.Version(); s3.Version() != got {
		t.Errorf("store version %d, db version %d", s3.Version(), got)
	}
}

// trippingCtx turns cancelled after its first Err call, so cancellation
// lands inside the block scan.
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

// rebuilt builds kind's store from db's current snapshot with no parent:
// the from-scratch reference an appended store's box must equal.
func rebuilt(t *testing.T, db *shapedb.DB) *Store {
	t.Helper()
	recs, ver := db.SnapshotVersion()
	st, err := build(testKind, db.Options().Dim(testKind), recs, ver, nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestDMax pins the Equation-4.4 normalizer to the live rows: the diagonal
// of the box of exactly the snapshot's rows, bit-identical whether the
// store was appended to (from empty, within the grid, far outside it) or
// rebuilt, and shrinking when a delete removes the extreme point.
func TestDMax(t *testing.T) {
	db := openDB(t, "")
	mgr := NewManager(db)
	steps := []struct {
		name   string
		mutate func() int64
		want   float64
		append bool // the manager must have taken the append path
	}{
		{"empty", func() int64 { return 0 }, 1e-12, false},
		{"append to empty", func() int64 { return insertVec(t, db, features.Vector{0, 0, 0}) }, 1e-12, true},
		{"append in grid", func() int64 { return insertVec(t, db, features.Vector{10, 10, 10}) }, math.Sqrt(300), true},
		{"append out of grid", func() int64 { return insertVec(t, db, features.Vector{40, 10, 10}) }, math.Sqrt(1600 + 100 + 100), true},
	}
	var prev *Store
	var extreme int64
	for _, step := range steps {
		if id := step.mutate(); id != 0 {
			extreme = id
		}
		st, err := mgr.Store(testKind)
		if err != nil {
			t.Fatal(err)
		}
		if appended := prev != nil && st.tree == prev.tree && st.Len() > prev.Len(); appended != step.append {
			t.Fatalf("%s: appended = %v, want %v", step.name, appended, step.append)
		}
		if got := st.DMax(); got != step.want {
			t.Errorf("%s: DMax = %v, want %v", step.name, got, step.want)
		}
		if got, ref := st.DMax(), rebuilt(t, db).DMax(); got != ref {
			t.Errorf("%s: DMax %v, rebuilt store's %v", step.name, got, ref)
		}
		prev = st
	}
	if _, err := db.Delete(extreme); err != nil {
		t.Fatal(err)
	}
	st, err := mgr.Store(testKind)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.DMax(); got != math.Sqrt(300) {
		t.Errorf("after deleting the extreme point: DMax = %v, want %v", got, math.Sqrt(300))
	}
}

// TestBounds checks the box itself: per-dimension extremes of the live
// rows, extended by appends without touching the parent snapshot's box,
// handed out as copies, and absent for a store with no rows.
func TestBounds(t *testing.T) {
	db := openDB(t, "")
	mgr := NewManager(db)
	st, err := mgr.Store(testKind)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi, ok := st.Bounds(); ok || lo != nil || hi != nil {
		t.Errorf("empty store Bounds = %v, %v, %v", lo, hi, ok)
	}
	insertVec(t, db, features.Vector{1, 5, -2})
	insertVec(t, db, features.Vector{3, 4, 7})
	parent, err := mgr.Store(testKind)
	if err != nil {
		t.Fatal(err)
	}
	insertVec(t, db, features.Vector{-8, 4.5, 0})
	child, err := mgr.Store(testKind)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		st     *Store
		lo, hi []float64
	}{
		{"parent", parent, []float64{1, 4, -2}, []float64{3, 5, 7}},
		{"appended child", child, []float64{-8, 4, -2}, []float64{3, 5, 7}},
		{"rebuilt child", rebuilt(t, db), []float64{-8, 4, -2}, []float64{3, 5, 7}},
	} {
		lo, hi, ok := c.st.Bounds()
		if !ok || !reflect.DeepEqual(lo, c.lo) || !reflect.DeepEqual(hi, c.hi) {
			t.Errorf("%s: Bounds = %v, %v, %v; want %v, %v", c.name, lo, hi, ok, c.lo, c.hi)
		}
		lo[0], hi[0] = math.Inf(-1), math.Inf(1)
		if again, _, _ := c.st.Bounds(); again[0] != c.lo[0] {
			t.Errorf("%s: Bounds handed out the store's own slice", c.name)
		}
	}
}

func TestSearchHonorsCancellationBetweenBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	db := openDB(t, "")
	dim := db.Options().Dim(testKind)
	for i := 0; i < 3*blockRows; i++ {
		insertVec(t, db, randVec(rng, dim, 5))
	}
	st, err := NewManager(db).Store(testKind)
	if err != nil {
		t.Fatal(err)
	}
	q := randVec(rng, dim, 5)
	if _, _, err := st.SearchTopK(&trippingCtx{Context: context.Background()}, q, nil, 5, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("SearchTopK mid-scan cancel: err = %v", err)
	}
	if _, _, err := st.SearchRadius(&trippingCtx{Context: context.Background()}, q, nil, 1, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("SearchRadius mid-scan cancel: err = %v", err)
	}
}

// TestManagerStaysCoherentUnderMutation drives a durable DB through
// inserts, deletes, quarantines, compaction, and a replica reset while a
// Watch loop and concurrent readers run — the -race gate for the
// CommitNotify-driven maintenance path. At the end the store must agree
// exactly with the database.
func TestManagerStaysCoherentUnderMutation(t *testing.T) {
	db := openDB(t, t.TempDir())
	dim := db.Options().Dim(testKind)
	rng := rand.New(rand.NewSource(26))
	var ids []int64
	for i := 0; i < 300; i++ {
		ids = append(ids, insertVec(t, db, randVec(rng, dim, 10)))
	}
	mgr := NewManager(db)
	if _, err := mgr.Store(testKind); err != nil { // register the kind for Watch
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		mgr.Watch(ctx)
	}()
	// Concurrent readers: every published store must be internally
	// consistent regardless of what the mutator is doing.
	readErr := make(chan error, 1)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for ctx.Err() == nil {
				st, err := mgr.Store(testKind)
				if err != nil {
					select {
					case readErr <- err:
					default:
					}
					return
				}
				q := randVec(rng, dim, 10)
				res, _, err := st.SearchTopK(context.Background(), q, nil, 5, 2)
				if err != nil {
					select {
					case readErr <- err:
					default:
					}
					return
				}
				for i := 1; i < len(res); i++ {
					if res[i].Dist < res[i-1].Dist {
						select {
						case readErr <- errors.New("unsorted results"):
						default:
						}
						return
					}
				}
			}
		}(int64(100 + r))
	}

	// Mutator: the sequence exercises append, rebuild, quarantine (a
	// delete under the hood), compaction, and replica reset.
	for i := 0; i < 60; i++ {
		ids = append(ids, insertVec(t, db, randVec(rng, dim, 10)))
	}
	for i := 0; i < 40; i++ {
		if _, err := db.Delete(ids[rng.Intn(len(ids))]); err != nil {
			t.Fatal(err)
		}
	}
	db.Quarantine(ids[0], shapedb.ScrubBitRot, "test")
	db.Quarantine(ids[1], shapedb.ScrubBitRot, "test")
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		insertVec(t, db, randVec(rng, dim, 10))
	}
	if err := db.ResetReplica(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		insertVec(t, db, randVec(rng, dim, 10))
	}

	// Give Watch a moment to chase the tail, then verify convergence via
	// the query path (which must refresh regardless of Watch timing).
	time.Sleep(20 * time.Millisecond)
	cancel()
	wg.Wait()
	select {
	case err := <-readErr:
		t.Fatalf("concurrent reader: %v", err)
	default:
	}

	st, err := mgr.Store(testKind)
	if err != nil {
		t.Fatal(err)
	}
	recs, ver := db.SnapshotVersion()
	var want []int64
	for _, rec := range recs {
		if _, ok := rec.Features[testKind]; ok {
			want = append(want, rec.ID)
		}
	}
	got := st.IDs()
	if len(got) != len(want) {
		t.Fatalf("store has %d rows, db has %d matching records", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d: store id %d, db id %d", i, got[i], want[i])
		}
	}
	if st.Version() != ver {
		t.Errorf("store version %d, db version %d", st.Version(), ver)
	}
}
