package shapedb

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"threedess/internal/features"
	"threedess/internal/geom"
)

func TestReplayEmptyJournalFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalName), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, features.Options{})
	if err != nil {
		t.Fatalf("empty journal: %v", err)
	}
	defer db.Close()
	if db.Len() != 0 {
		t.Errorf("Len = %d", db.Len())
	}
	// Still writable.
	testRecord(t, db, "a", 1, 0)
	if db.Len() != 1 {
		t.Error("insert after empty journal failed")
	}
}

func TestReplayGarbageJournalFile(t *testing.T) {
	dir := t.TempDir()
	garbage := make([]byte, 333)
	for i := range garbage {
		garbage[i] = byte(i * 7)
	}
	if err := os.WriteFile(filepath.Join(dir, journalName), garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, features.Options{})
	if err != nil {
		t.Fatalf("garbage journal: %v", err)
	}
	defer db.Close()
	if db.Len() != 0 {
		t.Errorf("recovered %d records from garbage", db.Len())
	}
}

func TestReplayImplausibleLengthFrame(t *testing.T) {
	dir := t.TempDir()
	// A frame header claiming 2 GiB payload.
	frame := []byte{0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3, 4}
	if err := os.WriteFile(filepath.Join(dir, journalName), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, features.Options{})
	if err != nil {
		t.Fatalf("implausible frame: %v", err)
	}
	defer db.Close()
	if db.Len() != 0 {
		t.Errorf("Len = %d", db.Len())
	}
	// The guard is no longer a silent clean-EOF: the report counts the
	// discarded bytes and classifies the tail.
	rep := db.Recovery()
	if rep == nil || !rep.Degraded() {
		t.Fatalf("implausible length not reported: %v", rep)
	}
	if rep.Tail != TailImplausibleLength {
		t.Errorf("Tail = %v, want implausible length", rep.Tail)
	}
	if rep.DiscardedBytes != int64(len(frame)) {
		t.Errorf("DiscardedBytes = %d, want %d", rep.DiscardedBytes, len(frame))
	}
	if rep.TornTail {
		t.Error("garbage header classified as torn tail")
	}
	if rep.Quarantined == "" {
		t.Error("discarded tail not quarantined")
	}
}

func TestJournalSurvivesManyOperations(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var live []int64
	for i := 0; i < 60; i++ {
		id := testRecord(t, db, "s", i%5, float64(i))
		live = append(live, id)
		if i%3 == 2 {
			victim := live[0]
			live = live[1:]
			if _, err := db.Delete(victim); err != nil {
				t.Fatal(err)
			}
		}
	}
	wantLen := db.Len()
	db.Close()

	re, err := Open(dir, features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != wantLen {
		t.Fatalf("reopened Len = %d, want %d", re.Len(), wantLen)
	}
	for _, id := range live {
		if _, ok := re.Get(id); !ok {
			t.Errorf("live record %d lost", id)
		}
	}
}

func TestConcurrentMixedOperations(t *testing.T) {
	db, _ := Open("", features.Options{})
	defer db.Close()
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))
	opts := db.Options()
	mkSet := func(base float64) features.Set {
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
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []int64
			for i := 0; i < 50; i++ {
				id, err := db.Insert("w", w, mesh, mkSet(float64(w*100+i)))
				if err != nil {
					t.Error(err)
					return
				}
				mine = append(mine, id)
				if i%4 == 3 {
					if _, err := db.Delete(mine[0]); err != nil {
						t.Error(err)
						return
					}
					mine = mine[1:]
				}
				q := make(features.Vector, opts.Dim(features.PrincipalMoments))
				if _, err := db.KNN(features.PrincipalMoments, q, 3); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// 4 workers × (50 inserts − 12 deletes) = 152 survivors.
	if got := db.Len(); got != 4*(50-12) {
		t.Errorf("Len = %d, want %d", got, 4*(50-12))
	}
}
