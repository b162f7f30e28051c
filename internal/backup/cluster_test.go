package backup

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"

	"threedess/internal/colstore"
	"threedess/internal/core"
	"threedess/internal/faultfs"
	"threedess/internal/features"
	"threedess/internal/scatter"
	"threedess/internal/shapedb"
)

// seedSharded spreads n records with explicit ids over `shards` durable
// DBs by consistent-hash ownership — the same routing a live cluster
// uses — and returns the DBs plus the full id set.
func seedSharded(t *testing.T, shards, n int) ([]*shapedb.DB, []int64) {
	t.Helper()
	ring, err := scatter.NewRing(shards)
	if err != nil {
		t.Fatal(err)
	}
	dbs := make([]*shapedb.DB, shards)
	for i := range dbs {
		dbs[i] = openDB(t, t.TempDir())
	}
	var ids []int64
	for i := 1; i <= n; i++ {
		id := int64(i)
		db := dbs[ring.Owner(id)]
		mesh, set := testMeshSet(db, float64(i))
		if _, err := db.InsertWith("rec", i%5, mesh, set, shapedb.InsertOpts{ID: id}); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	return dbs, ids
}

// clusterThreshold answers a weighted threshold query over shard DBs the
// way a coordinator does: the shards' live-row boxes merge elementwise
// into one, every shard normalizes by its diagonal, and the partial
// answers merge in (distance, id) order.
func clusterThreshold(t *testing.T, dbs []*shapedb.DB, query features.Set, w []float64, th float64) (float64, []core.Result) {
	t.Helper()
	const kind = features.PrincipalMoments
	var lo, hi []float64
	engines := make([]*core.Engine, len(dbs))
	for i, db := range dbs {
		engines[i] = core.NewEngine(db)
		st, err := engines[i].ColStore().Store(kind)
		if err != nil {
			t.Fatal(err)
		}
		l, h, ok := st.Bounds()
		switch {
		case !ok:
		case lo == nil:
			lo, hi = l, h
		default:
			for d := range lo {
				lo[d], hi[d] = math.Min(lo[d], l[d]), math.Max(hi[d], h[d])
			}
		}
	}
	dmax := colstore.Diagonal(lo, hi)
	var out []core.Result
	for _, e := range engines {
		res, err := e.SearchThreshold(context.Background(), query, core.Options{Feature: kind, Weights: w, Threshold: th, DMax: dmax})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].ID < out[j].ID
	})
	return dmax, out
}

func TestClusterBackupRestoreReshards(t *testing.T) {
	const n = 40
	srcDBs, ids := seedSharded(t, 4, n)
	// Delete the current extreme point (id n carries the largest vector)
	// before the backup: the restored fleet never holds it, so its box,
	// and every similarity normalized by it, must not remember it either.
	ring4, _ := scatter.NewRing(4)
	if _, err := srcDBs[ring4.Owner(n)].Delete(n); err != nil {
		t.Fatal(err)
	}
	ids = ids[:n-1]

	srcs := make([]Source, len(srcDBs))
	for i, db := range srcDBs {
		srcs[i] = &DBSource{DB: db, RingInfo: func() (int64, bool) { return 7, false }}
	}
	arcDir := t.TempDir()
	cm, err := BackupCluster(faultfs.OS{}, srcs, arcDir)
	if err != nil {
		t.Fatalf("cluster backup: %v", err)
	}
	if len(cm.Shards) != 4 || cm.RingEpoch != 7 {
		t.Fatalf("bad cluster manifest: %+v", cm)
	}

	// Restore the 4-shard archive onto 6 fresh shards.
	dstDBs := make([]*shapedb.DB, 6)
	for i := range dstDBs {
		dstDBs[i] = openDB(t, t.TempDir())
	}
	total, err := RestoreCluster(faultfs.OS{}, arcDir, dstDBs)
	if err != nil {
		t.Fatalf("cluster restore: %v", err)
	}
	if total != n-1 {
		t.Fatalf("restored %d records, want %d", total, n-1)
	}
	query := fixedSet(srcDBs[0].Options(), 17.5)
	w := []float64{1.5, 0.5, 1}
	srcDMax, want := clusterThreshold(t, srcDBs, query, w, 0.7)
	dstDMax, got := clusterThreshold(t, dstDBs, query, w, 0.7)
	if srcDMax != dstDMax {
		t.Fatalf("cluster DMax %v after the 4→6 restore, %v at the source", dstDMax, srcDMax)
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("threshold answer diverged across the 4→6 restore\nsrc: %+v\ndst: %+v", want, got)
	}

	// Every record landed on its 6-ring owner, byte-equivalent in
	// content to the source copy.
	ring6, err := scatter.NewRing(6)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		dst := dstDBs[ring6.Owner(id)]
		rec, ok := dst.Get(id)
		if !ok {
			t.Fatalf("record %d missing from its new owner (shard %d)", id, ring6.Owner(id))
		}
		src, _ := srcDBs[ring4.Owner(id)].Get(id)
		if rec.ContentCRC() != src.ContentCRC() {
			t.Fatalf("record %d content diverged across restore", id)
		}
		// Nobody else holds it.
		for s, db := range dstDBs {
			if s == ring6.Owner(id) {
				continue
			}
			if _, ok := db.Get(id); ok {
				t.Fatalf("record %d duplicated onto shard %d", id, s)
			}
		}
	}
}

func TestClusterBackupRefusesTransitioningRing(t *testing.T) {
	srcDBs, _ := seedSharded(t, 2, 6)
	srcs := []Source{
		&DBSource{DB: srcDBs[0], RingInfo: func() (int64, bool) { return 7, false }},
		&DBSource{DB: srcDBs[1], RingInfo: func() (int64, bool) { return 7, true }}, // mid-rebalance
	}
	if _, err := BackupCluster(faultfs.OS{}, srcs, t.TempDir()); err == nil {
		t.Fatal("cluster backup proceeded across a transitioning ring")
	}
}

func TestClusterBackupRefusesEpochSplit(t *testing.T) {
	srcDBs, _ := seedSharded(t, 2, 6)
	srcs := []Source{
		&DBSource{DB: srcDBs[0], RingInfo: func() (int64, bool) { return 7, false }},
		&DBSource{DB: srcDBs[1], RingInfo: func() (int64, bool) { return 8, false }},
	}
	if _, err := BackupCluster(faultfs.OS{}, srcs, t.TempDir()); err == nil {
		t.Fatal("cluster backup proceeded across a split ring epoch")
	}
}

func TestClusterRestoreRefusesNonEmptyTarget(t *testing.T) {
	srcDBs, _ := seedSharded(t, 2, 6)
	srcs := make([]Source, len(srcDBs))
	for i, db := range srcDBs {
		srcs[i] = &DBSource{DB: db}
	}
	arcDir := t.TempDir()
	if _, err := BackupCluster(faultfs.OS{}, srcs, arcDir); err != nil {
		t.Fatalf("cluster backup: %v", err)
	}
	dst := openDB(t, t.TempDir())
	mesh, set := testMeshSet(dst, 1)
	if _, err := dst.Insert("existing", 0, mesh, set); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreCluster(faultfs.OS{}, arcDir, []*shapedb.DB{dst}); err == nil {
		t.Fatal("cluster restore into a populated store succeeded")
	}
}

func TestClusterRestoreRefusesBitRot(t *testing.T) {
	srcDBs, _ := seedSharded(t, 2, 8)
	srcs := make([]Source, len(srcDBs))
	for i, db := range srcDBs {
		srcs[i] = &DBSource{DB: db}
	}
	arcDir := t.TempDir()
	if _, err := BackupCluster(faultfs.OS{}, srcs, arcDir); err != nil {
		t.Fatalf("cluster backup: %v", err)
	}
	m, err := VerifyDir(faultfs.OS{}, arcDir+"/shard-01")
	if err != nil {
		t.Fatal(err)
	}
	fr := m.Segments[0].Frames[0]
	if err := faultfs.FlipByte(arcDir+"/shard-01/"+m.Segments[0].Name, fr.Off+fr.Size/2, 0x08); err != nil {
		t.Fatal(err)
	}
	dst := openDB(t, t.TempDir())
	_, err = RestoreCluster(faultfs.OS{}, arcDir, []*shapedb.DB{dst})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("rotten shard archive: err = %v, want *CorruptError", err)
	}
	if dst.Len() != 0 {
		t.Fatalf("refused cluster restore imported %d records", dst.Len())
	}
}
