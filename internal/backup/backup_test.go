package backup

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"threedess/internal/core"
	"threedess/internal/faultfs"
	"threedess/internal/features"
	"threedess/internal/geom"
	"threedess/internal/shapedb"
)

func fixedSet(opts features.Options, base float64) features.Set {
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

func openDB(t *testing.T, dir string) *shapedb.DB {
	t.Helper()
	db, err := shapedb.Open(dir, features.Options{})
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func insertN(t *testing.T, db *shapedb.DB, n int, base float64) []int64 {
	t.Helper()
	ids := make([]int64, n)
	for i := 0; i < n; i++ {
		mesh := geom.Box(geom.V(0, 0, 0), geom.V(1+base+float64(i), 1, 1))
		id, err := db.Insert("s", i, mesh, fixedSet(db.Options(), base+float64(i)))
		if err != nil {
			t.Fatalf("insert: %v", err)
		}
		ids[i] = id
	}
	return ids
}

func nodeSource(db *shapedb.DB) *DBSource { return &DBSource{DB: db} }

func testMeshSet(db *shapedb.DB, base float64) (*geom.Mesh, features.Set) {
	return geom.Box(geom.V(0, 0, 0), geom.V(1+base, 1, 1)), fixedSet(db.Options(), base)
}

// journalBytes reads the raw committed journal of a live db.
func journalBytes(t *testing.T, db *shapedb.DB) []byte {
	t.Helper()
	st := db.ReplState()
	var out []byte
	for int64(len(out)) < st.Committed {
		chunk, _, err := db.ReadJournal(st.Epoch, int64(len(out)), 1<<20)
		if err != nil {
			t.Fatalf("ReadJournal: %v", err)
		}
		out = append(out, chunk...)
	}
	return out
}

func TestBackupRestoreRoundtripBitIdentical(t *testing.T) {
	srcDir, arcDir, dstDir := t.TempDir(), t.TempDir(), t.TempDir()
	db := openDB(t, srcDir)
	ids := insertN(t, db, 6, 0)
	if _, err := db.Delete(ids[2]); err != nil {
		t.Fatalf("delete: %v", err)
	}

	m, err := BackupNode(faultfs.OS{}, nodeSource(db), arcDir)
	if err != nil {
		t.Fatalf("backup: %v", err)
	}
	if m.Committed != db.ReplState().Committed {
		t.Fatalf("manifest committed %d, source %d", m.Committed, db.ReplState().Committed)
	}
	if _, err := VerifyDir(faultfs.OS{}, arcDir); err != nil {
		t.Fatalf("verify: %v", err)
	}

	rep, err := RestoreNode(faultfs.OS{}, arcDir, dstDir, 0)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if rep.Cut != m.Committed {
		t.Fatalf("full restore cut at %d, want %d", rep.Cut, m.Committed)
	}

	// The restored journal is byte-identical to the source's committed
	// prefix — the strongest possible equivalence.
	want := journalBytes(t, db)
	got, err := os.ReadFile(filepath.Join(dstDir, "shapes.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored journal differs from source (%d vs %d bytes)", len(got), len(want))
	}

	re := openDB(t, dstDir)
	if re.Len() != db.Len() {
		t.Fatalf("restored %d records, want %d", re.Len(), db.Len())
	}
	if _, ok := re.Get(ids[2]); ok {
		t.Fatal("deleted record resurrected by restore")
	}
}

func TestIncrementalBackupAppendsOnlyNewFrames(t *testing.T) {
	srcDir, arcDir := t.TempDir(), t.TempDir()
	db := openDB(t, srcDir)
	insertN(t, db, 3, 0)

	m1, err := BackupNode(faultfs.OS{}, nodeSource(db), arcDir)
	if err != nil {
		t.Fatalf("full backup: %v", err)
	}
	if len(m1.Segments) != 1 {
		t.Fatalf("full backup wrote %d segments, want 1", len(m1.Segments))
	}

	// Nothing new: no segment is added.
	m1b, err := BackupNode(faultfs.OS{}, nodeSource(db), arcDir)
	if err != nil {
		t.Fatalf("no-op backup: %v", err)
	}
	if len(m1b.Segments) != 1 {
		t.Fatalf("idle incremental grew to %d segments", len(m1b.Segments))
	}

	insertN(t, db, 2, 10)
	m2, err := BackupNode(faultfs.OS{}, nodeSource(db), arcDir)
	if err != nil {
		t.Fatalf("incremental backup: %v", err)
	}
	if len(m2.Segments) != 2 {
		t.Fatalf("incremental wrote %d segments, want 2", len(m2.Segments))
	}
	if m2.Segments[1].Start != m1.Committed {
		t.Fatalf("incremental starts at %d, want previous committed %d", m2.Segments[1].Start, m1.Committed)
	}
	if _, err := VerifyDir(faultfs.OS{}, arcDir); err != nil {
		t.Fatalf("verify after incremental: %v", err)
	}

	dstDir := t.TempDir()
	if _, err := RestoreNode(faultfs.OS{}, arcDir, dstDir, 0); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if re := openDB(t, dstDir); re.Len() != db.Len() {
		t.Fatalf("restored %d records, want %d", re.Len(), db.Len())
	}
}

func TestEpochChangeForcesFreshFullBackup(t *testing.T) {
	srcDir, arcDir := t.TempDir(), t.TempDir()
	db := openDB(t, srcDir)
	insertN(t, db, 3, 0)
	if _, err := BackupNode(faultfs.OS{}, nodeSource(db), arcDir); err != nil {
		t.Fatalf("backup: %v", err)
	}

	// Compaction regenerates the journal epoch; the old chain is dead.
	if _, err := db.Delete(db.IDs()[0]); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := db.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}

	m, err := BackupNode(faultfs.OS{}, nodeSource(db), arcDir)
	if err != nil {
		t.Fatalf("post-compaction backup: %v", err)
	}
	if m.ReplEpoch != db.ReplState().Epoch {
		t.Fatalf("manifest epoch %d, source %d", m.ReplEpoch, db.ReplState().Epoch)
	}
	if len(m.Segments) != 1 || m.Segments[0].Start != 0 {
		t.Fatalf("epoch change did not reset the archive: %+v", m.Segments)
	}
	dstDir := t.TempDir()
	if _, err := RestoreNode(faultfs.OS{}, arcDir, dstDir, 0); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if re := openDB(t, dstDir); re.Len() != db.Len() {
		t.Fatalf("restored %d records, want %d", re.Len(), db.Len())
	}
}

func TestPointInTimeRestoreCutsAtFrameBoundary(t *testing.T) {
	srcDir, arcDir := t.TempDir(), t.TempDir()
	db := openDB(t, srcDir)
	insertN(t, db, 2, 0)
	midpoint := db.ReplState().Committed
	insertN(t, db, 3, 50)

	if _, err := BackupNode(faultfs.OS{}, nodeSource(db), arcDir); err != nil {
		t.Fatalf("backup: %v", err)
	}

	// Cut exactly at a boundary: everything up to it, nothing after.
	dst1 := t.TempDir()
	rep, err := RestoreNode(faultfs.OS{}, arcDir, dst1, midpoint)
	if err != nil {
		t.Fatalf("restore at %d: %v", midpoint, err)
	}
	if rep.Cut != midpoint {
		t.Fatalf("cut at %d, want %d", rep.Cut, midpoint)
	}
	if re := openDB(t, dst1); re.Len() != 2 {
		t.Fatalf("point-in-time restore holds %d records, want 2", re.Len())
	}

	// A cut mid-frame rounds DOWN to the last complete frame.
	dst2 := t.TempDir()
	rep2, err := RestoreNode(faultfs.OS{}, arcDir, dst2, midpoint+1)
	if err != nil {
		t.Fatalf("restore at %d: %v", midpoint+1, err)
	}
	if rep2.Cut != midpoint {
		t.Fatalf("mid-frame cut landed at %d, want %d", rep2.Cut, midpoint)
	}
}

func TestBitFlippedArchiveRefusedAndTargetUntouched(t *testing.T) {
	srcDir, arcDir := t.TempDir(), t.TempDir()
	db := openDB(t, srcDir)
	insertN(t, db, 4, 0)
	m, err := BackupNode(faultfs.OS{}, nodeSource(db), arcDir)
	if err != nil {
		t.Fatalf("backup: %v", err)
	}

	// Rot one byte in the middle of the third frame's payload.
	victim := m.Segments[0].Frames[2]
	segPath := filepath.Join(arcDir, m.Segments[0].Name)
	if err := faultfs.FlipByte(segPath, victim.Off+victim.Size/2, 0x40); err != nil {
		t.Fatalf("FlipByte: %v", err)
	}

	dstDir := t.TempDir()
	_, err = RestoreNode(faultfs.OS{}, arcDir, dstDir, 0)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("restore of rotten archive returned %v, want *CorruptError", err)
	}
	// The report names the exact frame.
	if ce.Segment != m.Segments[0].Name || ce.Off != victim.Off {
		t.Fatalf("corruption reported at %s offset %d, want %s offset %d", ce.Segment, ce.Off, m.Segments[0].Name, victim.Off)
	}
	// And the target directory was never touched.
	entries, err := os.ReadDir(dstDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("refused restore wrote into the target dir: %v", entries)
	}
}

func TestTruncatedArchiveRefused(t *testing.T) {
	srcDir, arcDir := t.TempDir(), t.TempDir()
	db := openDB(t, srcDir)
	insertN(t, db, 3, 0)
	m, err := BackupNode(faultfs.OS{}, nodeSource(db), arcDir)
	if err != nil {
		t.Fatalf("backup: %v", err)
	}
	segPath := filepath.Join(arcDir, m.Segments[0].Name)
	if err := os.Truncate(segPath, m.Segments[0].Size-3); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyDir(faultfs.OS{}, arcDir); err == nil {
		t.Fatal("truncated archive verified clean")
	}
}

func TestRestoreRefusesNonEmptyTarget(t *testing.T) {
	srcDir, arcDir := t.TempDir(), t.TempDir()
	db := openDB(t, srcDir)
	insertN(t, db, 2, 0)
	if _, err := BackupNode(faultfs.OS{}, nodeSource(db), arcDir); err != nil {
		t.Fatalf("backup: %v", err)
	}
	// The source dir itself holds a journal: restore must refuse it.
	if _, err := RestoreNode(faultfs.OS{}, arcDir, srcDir, 0); err == nil {
		t.Fatal("restore over an existing journal succeeded")
	}
}

// TestCrashMidBackupResumes is the backup crash matrix: tear the archive
// filesystem at every injectable operation in turn, then rerun the backup
// on a clean filesystem and require a verified, complete, restorable
// archive every time.
func TestCrashMidBackupResumes(t *testing.T) {
	srcDir := t.TempDir()
	db := openDB(t, srcDir)
	insertN(t, db, 5, 0)

	// Count the ops of a clean run.
	counter := faultfs.NewInjector(faultfs.OS{})
	if _, err := BackupNode(counter, nodeSource(db), t.TempDir()); err != nil {
		t.Fatalf("counting run: %v", err)
	}
	total := counter.Ops()
	if total == 0 {
		t.Fatal("no injectable operations observed")
	}

	for failAt := int64(1); failAt <= total; failAt++ {
		arcDir := t.TempDir()
		inj := faultfs.NewInjector(faultfs.OS{})
		inj.FailAt, inj.Mode = failAt, faultfs.ModeCrash
		_, err := BackupNode(inj, nodeSource(db), arcDir)
		if err == nil && !inj.Fired() {
			t.Fatalf("failAt=%d: fault never fired", failAt)
		}

		// The "process" died; resume on a clean filesystem.
		m, err := BackupNode(faultfs.OS{}, nodeSource(db), arcDir)
		if err != nil {
			t.Fatalf("failAt=%d: resume: %v", failAt, err)
		}
		if m.Committed != db.ReplState().Committed {
			t.Fatalf("failAt=%d: resumed archive at %d, want %d", failAt, m.Committed, db.ReplState().Committed)
		}
		if _, err := VerifyDir(faultfs.OS{}, arcDir); err != nil {
			t.Fatalf("failAt=%d: resumed archive fails verification: %v", failAt, err)
		}
		dstDir := t.TempDir()
		if _, err := RestoreNode(faultfs.OS{}, arcDir, dstDir, 0); err != nil {
			t.Fatalf("failAt=%d: restore: %v", failAt, err)
		}
		re, err := shapedb.Open(dstDir, features.Options{})
		if err != nil {
			t.Fatalf("failAt=%d: reopen: %v", failAt, err)
		}
		n := re.Len()
		re.Close()
		if n != db.Len() {
			t.Fatalf("failAt=%d: restored %d records, want %d", failAt, n, db.Len())
		}
	}
}

// TestRestoreSearchEquivalence is the restore-equivalence property
// (satellite 4): a node that lived through inserts, degraded-extraction
// records, deletes, and a compaction epoch is backed up, restored, and
// must answer weighted searches with DeepEqual result lists — values,
// order, and ties included.
func TestRestoreSearchEquivalence(t *testing.T) {
	srcDir, arcDir, dstDir := t.TempDir(), t.TempDir(), t.TempDir()
	db := openDB(t, srcDir)
	opts := db.Options()

	// Epoch 1: plain inserts, one degraded record, a tie pair, deletes.
	ids := insertN(t, db, 5, 0)
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(3, 1, 1))
	if _, err := db.InsertFull("degraded", 9, mesh, fixedSet(opts, 2.5), []string{"skeleton"}); err != nil {
		t.Fatalf("degraded insert: %v", err)
	}
	// Two records with identical features: their similarity ties, so the
	// comparison exercises tie order too.
	for i := 0; i < 2; i++ {
		if _, err := db.Insert("twin", 7, mesh, fixedSet(opts, 4)); err != nil {
			t.Fatalf("twin insert: %v", err)
		}
	}
	if _, err := db.DeleteMany(ids[1:3]); err != nil {
		t.Fatalf("delete: %v", err)
	}
	// Delete the current extreme point (base 0, the low corner of every
	// kind's box) before compacting, so the restored journal never saw it.
	if _, err := db.Delete(ids[0]); err != nil {
		t.Fatalf("delete the extreme point: %v", err)
	}
	if err := db.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	// Epoch 2: more inserts on the compacted journal, then an
	// incremental on top of the post-compaction full backup.
	insertN(t, db, 3, 20)
	if _, err := BackupNode(faultfs.OS{}, nodeSource(db), arcDir); err != nil {
		t.Fatalf("backup: %v", err)
	}
	insertN(t, db, 2, 40)
	if _, err := BackupNode(faultfs.OS{}, nodeSource(db), arcDir); err != nil {
		t.Fatalf("incremental: %v", err)
	}

	if _, err := RestoreNode(faultfs.OS{}, arcDir, dstDir, 0); err != nil {
		t.Fatalf("restore: %v", err)
	}
	re := openDB(t, dstDir)

	srcEng, dstEng := core.NewEngine(db), core.NewEngine(re)
	query := fixedSet(opts, 3.3)
	for _, k := range features.CoreKinds {
		weights := make([]float64, opts.Dim(k))
		for i := range weights {
			weights[i] = 1 + float64(i%3) // non-uniform: the weighted scan path
		}
		opt := core.Options{Feature: k, K: 8, Weights: weights, Threshold: 0.6}
		for name, search := range map[string]func(*core.Engine, context.Context, features.Set, core.Options) ([]core.Result, error){
			"top-k": (*core.Engine).SearchTopK, "threshold": (*core.Engine).SearchThreshold,
		} {
			want, err := search(srcEng, context.Background(), query, opt)
			if err != nil || len(want) == 0 {
				t.Fatalf("%v: source %s search: %d results, %v", k, name, len(want), err)
			}
			got, err := search(dstEng, context.Background(), query, opt)
			if err != nil {
				t.Fatalf("%v: restored %s search: %v", k, name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: weighted %s search diverged after restore:\nsrc: %+v\ndst: %+v", k, name, want, got)
			}
		}
		srcSt, err := srcEng.ColStore().Store(k)
		if err != nil {
			t.Fatal(err)
		}
		dstSt, err := dstEng.ColStore().Store(k)
		if err != nil {
			t.Fatal(err)
		}
		if srcSt.DMax() != dstSt.DMax() {
			t.Fatalf("%v: DMax %v after restore, %v at the source", k, dstSt.DMax(), srcSt.DMax())
		}
	}
}
