package scrub

import (
	"fmt"
	"testing"

	"threedess/internal/faultfs"
	"threedess/internal/features"
	"threedess/internal/shapedb"
)

// TestTriggeredCompactionCrashMatrix proves the ISSUE's crash-safety
// claim for *policy-triggered* compaction: arm a fault at every
// injectable filesystem operation inside a compaction the policy engine
// itself decided to run, and assert each failure is a logical no-op —
// the in-memory live set is untouched, the maintainer records the error
// instead of crashing, and a clean reopen of the directory recovers
// exactly the pre-compaction live set.
func TestTriggeredCompactionCrashMatrix(t *testing.T) {
	cfg := Config{CompactMinDead: 4}
	// build raises a store past the dead-entries trigger.
	build := func(fsys faultfs.FS, dir string) (*shapedb.DB, map[int64]float64) {
		db, err := shapedb.OpenFS(dir, features.Options{}, fsys)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[int64]float64)
		var ids []int64
		for i := 0; i < 8; i++ {
			base := float64(i)
			id := insertOne(t, db, "cm", i, base)
			ids = append(ids, id)
			want[id] = base
		}
		for _, id := range ids[:3] {
			if _, err := db.Delete(id); err != nil {
				t.Fatal(err)
			}
			delete(want, id)
		}
		return db, want
	}

	// Pass 1: unarmed injector counts the triggered compaction's ops.
	counter := faultfs.NewInjector(faultfs.OS{})
	db, _ := build(counter, t.TempDir())
	m := New(db, cfg)
	pre := counter.Ops()
	if cr := m.CompactIfNeeded(); cr == nil || cr.Trigger != "dead-entries" || cr.Error != "" {
		t.Fatalf("baseline triggered compaction: %+v", cr)
	}
	db.Close()
	total := counter.Ops() - pre
	if total < 4 {
		t.Fatalf("triggered compaction has only %d fault points", total)
	}

	for _, mode := range []faultfs.Mode{faultfs.ModeError, faultfs.ModeCrash} {
		for n := int64(1); n <= total; n++ {
			tag := fmt.Sprintf("mode=%v fail-at=%d", mode, n)
			dir := t.TempDir()
			inj := faultfs.NewInjector(faultfs.OS{})
			db, want := build(inj, dir)
			m := New(db, cfg)
			inj.FailAt, inj.Mode = inj.Ops()+n, mode

			cr := m.CompactIfNeeded()
			if cr == nil {
				t.Fatalf("%s: policy did not fire", tag)
			}
			if cr.Error == "" {
				t.Fatalf("%s: compaction reported success with armed fault", tag)
			}
			// Logical no-op, part 1: the serving state is untouched.
			if db.Len() != len(want) {
				t.Errorf("%s: in-memory Len = %d, want %d", tag, db.Len(), len(want))
			}
			for id := range want {
				if _, ok := db.Get(id); !ok {
					t.Errorf("%s: live record %d lost in memory", tag, id)
				}
			}
			st := m.Status()
			if st.LastCompact == nil || st.LastCompact.Error == "" {
				t.Errorf("%s: failed compaction not recorded in status", tag)
			}
			db.Close()

			// Logical no-op, part 2: the on-disk state recovers the same
			// live set through a clean filesystem.
			re, err := shapedb.Open(dir, features.Options{})
			if err != nil {
				t.Fatalf("%s: reopen: %v", tag, err)
			}
			if re.Len() != len(want) {
				t.Errorf("%s: reopened Len = %d, want %d", tag, re.Len(), len(want))
			}
			for id, base := range want {
				rec, ok := re.Get(id)
				if !ok {
					t.Errorf("%s: live record %d lost on disk", tag, id)
					continue
				}
				if pm := rec.Features[features.PrincipalMoments]; len(pm) == 0 || pm[0] != base {
					t.Errorf("%s: record %d features corrupted", tag, id)
				}
				// The reopened store's frames verify end to end.
				if f := re.VerifyRecord(id); f.State != shapedb.ScrubClean {
					t.Errorf("%s: record %d scrubs %v after recovery (%s)", tag, id, f.State, f.Detail)
				}
			}
			re.Close()
		}
	}
}
