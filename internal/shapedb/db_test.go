package shapedb

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"threedess/internal/faultfs"
	"threedess/internal/features"
	"threedess/internal/geom"
)

// fixedFeatures builds a valid feature set with deterministic values.
func fixedFeatures(opts features.Options, base float64) features.Set {
	set := features.Set{}
	for _, k := range features.CoreKinds {
		v := make(features.Vector, opts.Dim(k))
		for i := range v {
			v[i] = base + float64(i)
		}
		set[k] = v
	}
	return set
}

func testRecord(t *testing.T, db *DB, name string, group int, base float64) int64 {
	t.Helper()
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(1+base, 1, 1))
	id, err := db.Insert(name, group, mesh, fixedFeatures(db.Options(), base))
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestInsertGetDelete(t *testing.T) {
	db, err := Open("", features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	id := testRecord(t, db, "widget", 3, 1)
	if db.Len() != 1 {
		t.Errorf("Len = %d", db.Len())
	}
	rec, ok := db.Get(id)
	if !ok {
		t.Fatal("record not found")
	}
	if rec.Name != "widget" || rec.Group != 3 {
		t.Errorf("record = %+v", rec)
	}
	if db.GroupOf(id) != 3 {
		t.Errorf("GroupOf = %d", db.GroupOf(id))
	}
	ok, err = db.Delete(id)
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if db.Len() != 0 {
		t.Errorf("Len after delete = %d", db.Len())
	}
	if _, ok := db.Get(id); ok {
		t.Error("deleted record still readable")
	}
	ok, err = db.Delete(id)
	if err != nil || ok {
		t.Errorf("double delete = %v, %v", ok, err)
	}
}

func TestInsertValidation(t *testing.T) {
	db, _ := Open("", features.Options{})
	defer db.Close()
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))
	if _, err := db.Insert("x", 0, nil, fixedFeatures(db.Options(), 0)); err == nil {
		t.Error("nil mesh accepted")
	}
	if _, err := db.Insert("x", 0, mesh, features.Set{}); err == nil {
		t.Error("empty features accepted")
	}
	bad := features.Set{features.PrincipalMoments: features.Vector{1}}
	if _, err := db.Insert("x", 0, mesh, bad); err == nil {
		t.Error("wrong-dimension feature accepted")
	}
}

func TestInsertCopiesInputs(t *testing.T) {
	db, _ := Open("", features.Options{})
	defer db.Close()
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))
	set := fixedFeatures(db.Options(), 2)
	id, err := db.Insert("w", 0, mesh, set)
	if err != nil {
		t.Fatal(err)
	}
	mesh.Vertices[0] = geom.V(99, 99, 99)
	set[features.PrincipalMoments][0] = 99
	rec, _ := db.Get(id)
	if rec.Mesh.Vertices[0] == geom.V(99, 99, 99) {
		t.Error("DB shares mesh storage with caller")
	}
	if rec.Features[features.PrincipalMoments][0] == 99 {
		t.Error("DB shares feature storage with caller")
	}
}

func TestKNNAndRadius(t *testing.T) {
	db, _ := Open("", features.Options{})
	defer db.Close()
	ids := make([]int64, 5)
	for i := range ids {
		ids[i] = testRecord(t, db, "s", 0, float64(i)*10)
	}
	dim := db.Options().Dim(features.PrincipalMoments)
	q := make(features.Vector, dim)
	for i := range q {
		q[i] = 21 + float64(i) // nearest to base=20 record
	}
	nn, err := db.KNN(features.PrincipalMoments, q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 2 || nn[0].ID != ids[2] {
		t.Errorf("KNN = %+v, want nearest %d", nn, ids[2])
	}
	// The full ranking is every row in (distance, id) order; only the
	// nearest lies within radius 5.
	all, err := db.KNN(features.PrincipalMoments, q, len(ids)+3)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(ids) {
		t.Fatalf("KNN past the corpus returned %d rows, want %d", len(all), len(ids))
	}
	var within []int64
	for i, n := range all {
		if i > 0 && (n.Dist < all[i-1].Dist || n.Dist == all[i-1].Dist && n.ID < all[i-1].ID) {
			t.Errorf("KNN out of (distance, id) order at %d: %+v", i, all)
		}
		if n.Dist <= 5 {
			within = append(within, n.ID)
		}
	}
	if len(within) != 1 || within[0] != ids[2] {
		t.Errorf("rows within radius 5 = %v, want [%d]", within, ids[2])
	}
	if _, err := db.KNN(features.Eigenvalues, q, 1); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if nn, err := db.KNN(features.ShapeDistribution, make(features.Vector, db.Options().Dim(features.ShapeDistribution)), 1); err != nil || len(nn) != 0 {
		t.Errorf("kind no row carries: KNN = %+v, %v; want empty", nn, err)
	}
}

func TestGroupQueries(t *testing.T) {
	db, _ := Open("", features.Options{})
	defer db.Close()
	a := testRecord(t, db, "a", 1, 0)
	b := testRecord(t, db, "b", 1, 1)
	c := testRecord(t, db, "c", 2, 2)
	members := db.GroupMembers(1)
	if len(members) != 2 || members[0] != a || members[1] != b {
		t.Errorf("GroupMembers(1) = %v", members)
	}
	if got := db.GroupMembers(9); got != nil {
		t.Errorf("GroupMembers(9) = %v", got)
	}
	if db.GroupOf(c) != 2 || db.GroupOf(999) != 0 {
		t.Error("GroupOf wrong")
	}
	ids := db.IDs()
	if len(ids) != 3 || ids[0] != a || ids[2] != c {
		t.Errorf("IDs = %v", ids)
	}
	count := 0
	prev := int64(0)
	db.ForEach(func(r *Record) {
		if r.ID <= prev {
			t.Error("ForEach not in ascending ID order")
		}
		prev = r.ID
		count++
	})
	if count != 3 {
		t.Errorf("ForEach visited %d", count)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := testRecord(t, db, "alpha", 1, 0)
	b := testRecord(t, db, "beta", 2, 5)
	c := testRecord(t, db, "gamma", 2, 9)
	if _, err := db.Delete(b); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 2 {
		t.Fatalf("reopened Len = %d, want 2", re.Len())
	}
	rec, ok := re.Get(a)
	if !ok || rec.Name != "alpha" || rec.Group != 1 {
		t.Errorf("alpha = %+v, ok=%v", rec, ok)
	}
	if _, ok := re.Get(b); ok {
		t.Error("deleted record resurrected")
	}
	// Index rebuilt: query works.
	dim := re.Options().Dim(features.PrincipalMoments)
	q := make(features.Vector, dim)
	for i := range q {
		q[i] = 9 + float64(i)
	}
	nn, err := re.KNN(features.PrincipalMoments, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 1 || nn[0].ID != c {
		t.Errorf("reopened KNN = %+v, want %d", nn, c)
	}
	// New inserts get fresh IDs beyond the replayed maximum.
	d := testRecord(t, re, "delta", 0, 3)
	if d <= c {
		t.Errorf("new ID %d not beyond %d", d, c)
	}
	// Mesh geometry survived.
	if len(rec.Mesh.Faces) != 12 {
		t.Errorf("mesh faces = %d", len(rec.Mesh.Faces))
	}
}

func TestCrashRecoveryTruncatedJournal(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	testRecord(t, db, "a", 1, 0)
	testRecord(t, db, "b", 2, 5)
	db.Close()

	// Simulate a crash mid-append: truncate the journal inside the last
	// frame.
	path := filepath.Join(dir, journalName)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-7); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, features.Options{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("recovered Len = %d, want 1 (torn tail dropped)", re.Len())
	}
	// The DB remains writable after recovery.
	testRecord(t, re, "c", 3, 7)
	if re.Len() != 2 {
		t.Errorf("post-recovery insert failed")
	}
}

func TestCrashRecoveryCorruptPayload(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	testRecord(t, db, "a", 1, 0)
	testRecord(t, db, "b", 2, 5)
	db.Close()

	// Flip a byte in the second frame's payload.
	path := filepath.Join(dir, journalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, features.Options{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Errorf("recovered Len = %d, want 1 (corrupt frame dropped)", re.Len())
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	keep := testRecord(t, db, "keep", 1, 0)
	for i := 0; i < 10; i++ {
		id := testRecord(t, db, "tmp", 0, float64(i))
		if _, err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, journalName)
	before, _ := os.Stat(path)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Errorf("compaction did not shrink journal: %d -> %d", before.Size(), after.Size())
	}
	// Still writable and correct after compaction.
	testRecord(t, db, "post", 0, 50)
	db.Close()
	re, err := Open(dir, features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 2 {
		t.Errorf("post-compact Len = %d, want 2", re.Len())
	}
	if _, ok := re.Get(keep); !ok {
		t.Error("kept record lost in compaction")
	}
}

func TestCompactInMemoryNoop(t *testing.T) {
	db, _ := Open("", features.Options{})
	defer db.Close()
	if err := db.Compact(); err != nil {
		t.Errorf("in-memory compact: %v", err)
	}
}

// blockingRenameFS stalls Rename until released, keeping a compaction
// in-flight long enough for a second call to race it.
type blockingRenameFS struct {
	faultfs.FS
	entered chan struct{}
	release chan struct{}
}

func (b *blockingRenameFS) Rename(oldpath, newpath string) error {
	b.entered <- struct{}{}
	<-b.release
	return b.FS.Rename(oldpath, newpath)
}

func TestCompactConcurrentInvocationGuard(t *testing.T) {
	// entered is buffered so renames after the choreographed one (the
	// final sanity compaction below) pass straight through; release is
	// closed once, and a closed channel never blocks receivers.
	bfs := &blockingRenameFS{
		FS:      faultfs.OS{},
		entered: make(chan struct{}, 4),
		release: make(chan struct{}),
	}
	db, err := OpenFS(t.TempDir(), features.Options{}, bfs)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var ids []int64
	for i := 0; i < 6; i++ {
		ids = append(ids, testRecord(t, db, "g", 0, float64(i)))
	}
	for _, id := range ids[:3] {
		if _, err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	first := make(chan error, 1)
	go func() { first <- db.Compact() }()
	<-bfs.entered // first compaction is mid-rename, still holding the guard
	// The racing call must return the sentinel immediately — it cannot
	// block on db.mu (the first holds it) because the guard is checked
	// before the lock.
	if err := db.Compact(); err != ErrCompactionInProgress {
		t.Fatalf("racing Compact returned %v, want ErrCompactionInProgress", err)
	}
	close(bfs.release)
	if err := <-first; err != nil {
		t.Fatalf("first Compact failed: %v", err)
	}
	// Guard released: a later compaction succeeds.
	if err := db.Compact(); err != nil {
		t.Fatalf("post-race Compact failed: %v", err)
	}
	st := db.Stats()
	if st.LiveRecords != 3 || st.DeadEntries != 0 {
		t.Fatalf("post-compaction stats: %+v", st)
	}
}

func TestConcurrentReadsDuringWrites(t *testing.T) {
	db, _ := Open("", features.Options{})
	defer db.Close()
	for i := 0; i < 20; i++ {
		testRecord(t, db, "seed", 0, float64(i))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			testRecord(t, db, "w", 0, float64(100+i))
		}
	}()
	dim := db.Options().Dim(features.PrincipalMoments)
	q := make(features.Vector, dim)
	for i := 0; i < 200; i++ {
		if _, err := db.KNN(features.PrincipalMoments, q, 3); err != nil {
			t.Error(err)
			break
		}
		db.Len()
	}
	<-done
	if db.Len() != 120 {
		t.Errorf("Len = %d, want 120", db.Len())
	}
}

func TestIndexStatsCountsLiveRows(t *testing.T) {
	db, _ := Open("", features.Options{})
	defer db.Close()
	if _, _, c := db.IndexStats(features.PrincipalMoments); c != 0 {
		t.Errorf("empty DB counts %d rows", c)
	}
	a := testRecord(t, db, "a", 0, 0)
	testRecord(t, db, "b", 0, 1)
	if acc, height, count := db.IndexStats(features.PrincipalMoments); acc != 0 || height != 0 || count != 2 {
		t.Errorf("stats = (%d, %d, %d), want (0, 0, 2)", acc, height, count)
	}
	if _, err := db.Delete(a); err != nil {
		t.Fatal(err)
	}
	if _, _, c := db.IndexStats(features.PrincipalMoments); c != 1 {
		t.Errorf("after a delete the stats count %d rows, want 1", c)
	}
	if _, _, c := db.IndexStats(features.ShapeDistribution); c != 0 {
		t.Errorf("kind no row carries counts %d rows", c)
	}
}

func TestSnapshotPointInTime(t *testing.T) {
	db, _ := Open("", features.Options{})
	defer db.Close()
	a := testRecord(t, db, "a", 1, 0)
	b := testRecord(t, db, "b", 2, 5)
	snap := db.Snapshot()
	if len(snap) != 2 || snap[0].ID != a || snap[1].ID != b {
		t.Fatalf("Snapshot = %+v", snap)
	}
	// Mutations after the snapshot are not visible in it.
	if _, err := db.Delete(a); err != nil {
		t.Fatal(err)
	}
	testRecord(t, db, "c", 0, 9)
	if len(snap) != 2 || snap[0].ID != a || snap[0].Name != "a" {
		t.Error("snapshot changed under mutation")
	}
	// Snapshot consumers may call back into the DB without deadlocking.
	for _, rec := range db.Snapshot() {
		if _, ok := db.Get(rec.ID); !ok {
			t.Errorf("callback Get(%d) failed", rec.ID)
		}
	}
	if got := db.Snapshot(); len(got) != 2 {
		t.Errorf("fresh snapshot has %d records", len(got))
	}
}

func TestGetMany(t *testing.T) {
	db, _ := Open("", features.Options{})
	defer db.Close()
	a := testRecord(t, db, "a", 1, 0)
	b := testRecord(t, db, "b", 2, 5)
	got := db.GetMany([]int64{b, 999, a})
	if len(got) != 3 {
		t.Fatalf("GetMany returned %d records", len(got))
	}
	if got[0] == nil || got[0].ID != b || got[1] != nil || got[2] == nil || got[2].ID != a {
		t.Errorf("GetMany = %+v", got)
	}
	if out := db.GetMany(nil); len(out) != 0 {
		t.Errorf("GetMany(nil) = %v", out)
	}
}

// TestConcurrentSnapshotMixedOps exercises Insert, Delete, Get, GetMany,
// Snapshot, and KNN from concurrent goroutines; run under -race it is the
// store's concurrency smoke test for the parallel execution layer.
func TestConcurrentSnapshotMixedOps(t *testing.T) {
	db, _ := Open("", features.Options{})
	defer db.Close()
	var seed []int64
	for i := 0; i < 30; i++ {
		seed = append(seed, testRecord(t, db, "seed", i%3, float64(i)))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				testRecord(t, db, "w", 0, float64(1000+w*100+i))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, id := range seed[:10] {
			if _, err := db.Delete(id); err != nil {
				t.Error(err)
			}
		}
	}()
	dim := db.Options().Dim(features.PrincipalMoments)
	q := make(features.Vector, dim)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				if _, err := db.KNN(features.PrincipalMoments, q, 5); err != nil {
					t.Error(err)
					return
				}
				snap := db.Snapshot()
				prev := int64(0)
				for _, rec := range snap {
					if rec.ID <= prev {
						t.Error("snapshot not in ascending ID order")
						return
					}
					prev = rec.ID
				}
				db.GetMany(seed)
			}
		}()
	}
	wg.Wait()
	if want := 30 + 4*40 - 10; db.Len() != want {
		t.Errorf("Len = %d, want %d", db.Len(), want)
	}
}
