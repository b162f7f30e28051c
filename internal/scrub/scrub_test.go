package scrub

import (
	"context"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

func insertOne(t *testing.T, db *shapedb.DB, name string, group int, base float64) int64 {
	t.Helper()
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(1+base, 1, 1))
	id, err := db.Insert(name, group, mesh, fixedSet(db.Options(), base))
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func openDB(t *testing.T) (*shapedb.DB, string) {
	t.Helper()
	dir := t.TempDir()
	db, err := shapedb.Open(dir, features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, dir
}

// journalPath mirrors shapedb's private layout for frame corruption.
func journalPath(dir string) string { return filepath.Join(dir, "shapes.journal") }

func TestScrubOnceCleanStore(t *testing.T) {
	db, _ := openDB(t)
	for i := 0; i < 20; i++ {
		insertOne(t, db, "c", i, float64(i))
	}
	m := New(db, Config{Workers: 4})
	rep := m.ScrubOnce(context.Background())
	if rep.Checked != 20 || rep.Clean != 20 || len(rep.Findings) != 0 {
		t.Fatalf("clean store scrub: %+v", rep)
	}
	st := m.Status()
	if st.ScrubRuns != 1 || st.LastScrub == nil || st.LastScrub.Checked != 20 {
		t.Fatalf("status after scrub: %+v", st)
	}
}

func TestScrubOnceQuarantinesBitRot(t *testing.T) {
	db, dir := openDB(t)
	var ids []int64
	for i := 0; i < 10; i++ {
		ids = append(ids, insertOne(t, db, "r", i, float64(i)))
	}
	victims := []int64{ids[2], ids[7]}
	for _, id := range victims {
		off, size, ok := db.FrameSpan(id)
		if !ok {
			t.Fatalf("no frame for %d", id)
		}
		if err := faultfs.FlipByte(journalPath(dir), off+8+(size-8)/2, 0x10); err != nil {
			t.Fatal(err)
		}
	}
	m := New(db, Config{Workers: 4, ScrubRate: 100000})
	rep := m.ScrubOnce(context.Background())
	if rep.Checked != 10 || len(rep.Findings) != 2 || rep.Quarantined != 2 {
		t.Fatalf("scrub over rotted store: %+v", rep)
	}
	for _, id := range victims {
		if !db.IsQuarantined(id) {
			t.Fatalf("victim %d not quarantined", id)
		}
		if _, ok := db.Get(id); ok {
			t.Fatalf("victim %d still served", id)
		}
	}
	// A second pass over the healed-in-memory store is clean (victims gone).
	rep = m.ScrubOnce(context.Background())
	if len(rep.Findings) != 0 || rep.Checked != 8 {
		t.Fatalf("second scrub: %+v", rep)
	}
	// Quarantine leaves dead weight; the policy heals it via compaction.
	if cr := m.CompactIfNeeded(); cr == nil || cr.Trigger != "quarantine-heal" || cr.Error != "" {
		t.Fatalf("quarantine-heal compaction: %+v", cr)
	}
	if st := db.Stats(); st.UnhealedQuarantine != 0 {
		t.Fatalf("unhealed quarantine after heal: %+v", st)
	}
}

func TestScrubRateLimiterPacesPass(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	db, _ := openDB(t)
	for i := 0; i < 30; i++ {
		insertOne(t, db, "p", i, float64(i))
	}
	m := New(db, Config{Workers: 4, ScrubRate: 100}) // 30 records at 100/s ≈ 290ms
	start := time.Now()
	rep := m.ScrubOnce(context.Background())
	elapsed := time.Since(start)
	if rep.Checked != 30 || rep.Clean != 30 {
		t.Fatalf("scrub: %+v", rep)
	}
	if elapsed < 200*time.Millisecond {
		t.Fatalf("rate-limited pass finished in %v, want >= ~290ms", elapsed)
	}
}

func TestScrubOnceHonorsCancellation(t *testing.T) {
	db, _ := openDB(t)
	for i := 0; i < 50; i++ {
		insertOne(t, db, "x", i, float64(i))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := New(db, Config{Workers: 2, ScrubRate: 10})
	rep := m.ScrubOnce(ctx)
	if !rep.Interrupted {
		t.Fatalf("cancelled scrub not marked interrupted: %+v", rep)
	}
	if rep.Checked >= 50 {
		t.Fatalf("cancelled scrub checked all %d records", rep.Checked)
	}
}

func TestCompactPolicyTriggers(t *testing.T) {
	db, _ := openDB(t)
	var ids []int64
	for i := 0; i < 20; i++ {
		ids = append(ids, insertOne(t, db, "t", i, float64(i)))
	}
	cfg := Config{CompactRatio: 2.0, CompactMinDead: 1000, CompactMinInterval: time.Hour}
	m := New(db, cfg)
	// Fresh store: amplification 1.0, nothing dead — no trigger.
	if cr := m.CompactIfNeeded(); cr != nil {
		t.Fatalf("policy fired on a fresh store: %+v", cr)
	}
	// Delete over half: amplification crosses 2.0 with dead entries.
	for _, id := range ids[:14] {
		if _, err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.Stats(); st.Amplification() < 2.0 {
		t.Fatalf("workload did not reach the ratio trigger: %+v", st)
	}
	cr := m.CompactIfNeeded()
	if cr == nil || cr.Trigger != "ratio" || cr.Error != "" {
		t.Fatalf("ratio trigger: %+v", cr)
	}
	if st := db.Stats(); st.DeadEntries != 0 || st.LiveRecords != 6 {
		t.Fatalf("stats after ratio compaction: %+v", st)
	}
	// Backoff: another eligible workload inside MinInterval stays put.
	for _, id := range ids[14:19] {
		if _, err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.Stats(); st.Amplification() >= 2.0 {
		if cr := m.CompactIfNeeded(); cr != nil {
			t.Fatalf("policy ignored MinInterval backoff: %+v", cr)
		}
	}
	// Manual trigger bypasses both policy and backoff.
	cr = m.TriggerCompact()
	if cr == nil || cr.Trigger != "manual" || cr.Error != "" {
		t.Fatalf("manual trigger: %+v", cr)
	}
	if st := db.Stats(); st.DeadEntries != 0 {
		t.Fatalf("stats after manual compaction: %+v", st)
	}
	st := m.Status()
	if st.CompactRuns != 2 || st.LastCompact == nil || st.LastCompact.Trigger != "manual" {
		t.Fatalf("status: %+v", st)
	}
}

func TestCompactDeadEntriesTrigger(t *testing.T) {
	db, _ := openDB(t)
	var ids []int64
	for i := 0; i < 12; i++ {
		ids = append(ids, insertOne(t, db, "d", i, float64(i)))
	}
	for _, id := range ids[:4] {
		if _, err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	m := New(db, Config{CompactMinDead: 8}) // 4 deletes + 4 superseded inserts = 8 dead
	cr := m.CompactIfNeeded()
	if cr == nil || cr.Trigger != "dead-entries" || cr.Error != "" {
		t.Fatalf("dead-entries trigger: %+v", cr)
	}
}

func TestInMemoryStoreNeverCompacts(t *testing.T) {
	db, err := shapedb.Open("", features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	insertOne(t, db, "m", 0, 1)
	m := New(db, Config{CompactRatio: 0.1, CompactMinDead: 1})
	if cr := m.CompactIfNeeded(); cr != nil {
		t.Fatalf("policy fired on in-memory store: %+v", cr)
	}
}

func TestMaintainerBackgroundLifecycle(t *testing.T) {
	db, _ := openDB(t)
	for i := 0; i < 10; i++ {
		insertOne(t, db, "bg", i, float64(i))
	}
	m := New(db, Config{
		ScrubInterval:        5 * time.Millisecond,
		CompactCheckInterval: 5 * time.Millisecond,
		CompactRatio:         2.0,
		Workers:              2,
	})
	m.Start(context.Background())
	m.Start(context.Background()) // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := m.Status()
		if st.ScrubRuns > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background loops never ran: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	m.Stop()
	m.Stop() // idempotent
	st := m.Status()
	if st.Running {
		t.Fatal("status reports running after Stop")
	}
	after := st.ScrubRuns
	time.Sleep(30 * time.Millisecond)
	if got := m.Status().ScrubRuns; got != after {
		t.Fatalf("scrub loop still running after Stop: %d -> %d", after, got)
	}
}

// TestMaintenanceConcurrentMixedOps extends the DB's mixed-ops race test
// across the maintenance loops: scrubbing and auto-compaction both run
// at aggressive intervals while inserts, deletes, and KNN queries hammer
// the store. Run under -race this is the
// lock-discipline proof for the whole self-healing layer.
func TestMaintenanceConcurrentMixedOps(t *testing.T) {
	db, _ := openDB(t)
	opts := db.Options()
	var seed []int64
	for i := 0; i < 20; i++ {
		seed = append(seed, insertOne(t, db, "seed", i, float64(i)))
	}
	m := New(db, Config{
		ScrubInterval:        time.Millisecond,
		ScrubRate:            0, // unthrottled: maximize interleaving
		Workers:              4,
		CompactCheckInterval: time.Millisecond,
		CompactRatio:         1.5,
		CompactMinDead:       10,
	})
	m.Start(context.Background())

	dur := 600 * time.Millisecond
	if testing.Short() {
		dur = 150 * time.Millisecond
	}
	stop := time.After(dur)
	done := make(chan struct{})
	go func() { <-stop; close(done) }()

	var wg sync.WaitGroup
	var inserted atomic.Int64
	insertedIDs := make(chan int64, 4096)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				mesh := geom.Box(geom.V(0, 0, 0), geom.V(1+rng.Float64(), 1, 1))
				id, err := db.Insert("w", w*1000+i, mesh, fixedSet(opts, rng.Float64()*50))
				if err != nil {
					panic(err)
				}
				inserted.Add(1)
				select {
				case insertedIDs <- id:
				default:
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			case id := <-insertedIDs:
				if _, err := db.Delete(id); err != nil {
					panic(err)
				}
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				k := features.CoreKinds[rng.Intn(len(features.CoreKinds))]
				q := fixedSet(opts, rng.Float64()*50)[k]
				if _, err := db.KNN(k, q, 5); err != nil {
					panic(err)
				}
				m.Status()
			}
		}(r)
	}
	wg.Wait()
	m.TriggerCompact()
	m.Stop()

	// Quiesced: the store must be fully self-consistent.
	final := m.ScrubOnce(context.Background())
	if len(final.Findings) != 0 {
		t.Fatalf("scrub findings after mixed ops: %+v", final.Findings)
	}
	for _, id := range seed {
		if _, ok := db.Get(id); !ok {
			t.Fatalf("seed record %d lost", id)
		}
	}
	if inserted.Load() == 0 {
		t.Fatal("no traffic ran")
	}
}
