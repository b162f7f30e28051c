package shapedb

import (
	"errors"
	"testing"

	"threedess/internal/faultfs"
	"threedess/internal/features"
	"threedess/internal/geom"
)

// The ENOSPC degradation contract (DESIGN.md §15): a failed journal
// append or sync fences the database read-only instead of poisoning it.
// Reads keep serving, every acknowledged write survives a reopen, the
// failed write is NOT acknowledged and NOT present after recovery, and
// compaction — which rewrites the journal from the acknowledged
// in-memory state — heals the fence once space is available again.

var errNoSpace = errors.New("no space left on device")

// fencedDB opens a durable DB through a write-injecting filesystem,
// inserts seed acknowledged records, then flips on the persistent
// write-failure regime and drives one insert into the fence.
func fencedDB(t *testing.T, dir string, seed int) (*DB, *faultfs.Injector, []int64) {
	t.Helper()
	inj := faultfs.NewInjector(faultfs.OS{})
	db, err := OpenFS(dir, features.Options{}, inj)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var acked []int64
	for i := 0; i < seed; i++ {
		acked = append(acked, testRecord(t, db, "seed", i, float64(i)))
	}
	inj.FailWritesWith(errNoSpace)
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))
	if _, err := db.Insert("doomed", 99, mesh, fixedFeatures(db.Options(), 99)); err == nil {
		t.Fatal("insert under full disk succeeded")
	} else if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("failing insert returned %v, want ErrReadOnly", err)
	}
	return db, inj, acked
}

func TestEnospcFencesReadOnlyNotFailStop(t *testing.T) {
	dir := t.TempDir()
	db, _, acked := fencedDB(t, dir, 3)
	defer db.Close()

	if db.ReadOnlyErr() == nil {
		t.Fatal("ReadOnlyErr nil after failed append")
	}
	st := db.Stats()
	if !st.ReadOnly || st.ReadOnlyReason == "" {
		t.Fatalf("stats do not report the fence: %+v", st)
	}

	// Further writes are refused up front with the sentinel.
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))
	if _, err := db.Insert("more", 1, mesh, fixedFeatures(db.Options(), 5)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("insert on fenced db: %v, want ErrReadOnly", err)
	}
	if _, err := db.Delete(acked[0]); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("delete on fenced db: %v, want ErrReadOnly", err)
	}

	// Reads keep serving: every acknowledged record, queries included.
	for _, id := range acked {
		if _, ok := db.Get(id); !ok {
			t.Fatalf("acked record %d unreadable under fence", id)
		}
	}
	for _, k := range features.CoreKinds {
		if _, err := db.KNN(k, fixedFeatures(db.Options(), 1)[k], 2); err != nil {
			t.Fatalf("KNN under fence: %v", err)
		}
	}
}

func TestEnospcZeroAckedWriteLossOnReopen(t *testing.T) {
	dir := t.TempDir()
	db, _, acked := fencedDB(t, dir, 3)
	db.Close()

	re, err := Open(dir, features.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	// The fence rolled the torn append back to the last acknowledged
	// frame: recovery sees a clean journal, not a quarantined tail.
	if rep := re.Recovery(); rep.Tail != TailClean || rep.DiscardedBytes != 0 {
		t.Fatalf("recovery found garbage after fenced append: %+v", rep)
	}
	if re.Len() != len(acked) {
		t.Fatalf("recovered %d records, want %d acked", re.Len(), len(acked))
	}
	for _, id := range acked {
		if _, ok := re.Get(id); !ok {
			t.Fatalf("acked record %d lost", id)
		}
	}
	if re.ReadOnlyErr() != nil {
		t.Fatal("fresh reopen inherited the fence")
	}
}

func TestCompactHealsFenceWhenSpaceFrees(t *testing.T) {
	dir := t.TempDir()
	db, inj, acked := fencedDB(t, dir, 3)
	defer db.Close()

	// Space still exhausted: compaction's temp-file writes fail too and
	// the fence must hold.
	if err := db.Compact(); err == nil {
		t.Fatal("compact under full disk succeeded")
	}
	if db.ReadOnlyErr() == nil {
		t.Fatal("fence lifted by a failed compaction")
	}

	// Space freed: compaction rewrites the journal from acknowledged
	// state and lifts the fence.
	inj.FailWritesWith(nil)
	if err := db.Compact(); err != nil {
		t.Fatalf("compact after space freed: %v", err)
	}
	if err := db.ReadOnlyErr(); err != nil {
		t.Fatalf("fence survived a successful compaction: %v", err)
	}
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(2, 1, 1))
	id, err := db.Insert("after", 7, mesh, fixedFeatures(db.Options(), 7))
	if err != nil {
		t.Fatalf("insert after heal: %v", err)
	}

	re, err := Open(dir, features.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if re.Len() != len(acked)+1 {
		t.Fatalf("recovered %d records, want %d", re.Len(), len(acked)+1)
	}
	if _, ok := re.Get(id); !ok {
		t.Fatal("post-heal insert lost")
	}
}

func TestFencedDeleteBatchNotAcknowledged(t *testing.T) {
	dir := t.TempDir()
	db, _, acked := fencedDB(t, dir, 4)
	if _, err := db.DeleteMany(acked[:2]); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("DeleteMany on fenced db: %v, want ErrReadOnly", err)
	}
	db.Close()

	re, err := Open(dir, features.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if re.Len() != len(acked) {
		t.Fatalf("unacknowledged batch delete persisted: %d records, want %d", re.Len(), len(acked))
	}
}

func TestReadJournalServesUnderFence(t *testing.T) {
	// Backup of a fenced node must work: the fence blocks writes only.
	dir := t.TempDir()
	db, _, _ := fencedDB(t, dir, 3)
	defer db.Close()

	st := db.ReplState()
	if st.Epoch == 0 || st.Committed == 0 {
		t.Fatalf("no committed journal to read: %+v", st)
	}
	got := int64(0)
	for got < st.Committed {
		chunk, _, err := db.ReadJournal(st.Epoch, got, 1<<20)
		if err != nil {
			t.Fatalf("ReadJournal under fence at %d: %v", got, err)
		}
		if len(chunk) == 0 {
			t.Fatalf("no progress at %d of %d", got, st.Committed)
		}
		got += int64(len(chunk))
	}
}
