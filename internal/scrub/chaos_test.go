package scrub

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"threedess/internal/faultfs"
	"threedess/internal/features"
	"threedess/internal/geom"
	"threedess/internal/shapedb"
)

// TestChaosSoakBitRotUnderTraffic is the acceptance test for the
// self-healing layer: mixed ingest/delete/query traffic runs against the
// store while bit-flips are injected into live journal frames underneath
// it. The scrubber must find and quarantine every flipped record, no
// query may ever return a record after it was quarantined, and no clean
// record may be falsely quarantined.
//
// Automatic compaction is deliberately disabled during the soak: a
// compaction rewrites the journal from the intact in-memory copies,
// which *heals* flips before the scrubber has seen them — correct
// behavior, but it would turn "found every flip" into an untestable
// race. The healing path is exercised at the end, after detection is
// proven.
func TestChaosSoakBitRotUnderTraffic(t *testing.T) {
	db, dir := openDB(t)
	opts := db.Options()

	// Victims: seeded records the traffic never deletes, so every flip
	// stays detectable until the scrubber reaches it.
	nVictims := 40
	dur := 1500 * time.Millisecond
	if testing.Short() {
		nVictims, dur = 12, 400*time.Millisecond
	}
	victims := make([]int64, 0, nVictims)
	for i := 0; i < nVictims; i++ {
		victims = append(victims, insertOne(t, db, "victim", i, float64(i)))
	}
	// Frame spans are stable for the whole soak because compaction is off.
	type span struct{ off, size int64 }
	spans := make(map[int64]span, nVictims)
	for _, id := range victims {
		off, size, ok := db.FrameSpan(id)
		if !ok || size <= 9 {
			t.Fatalf("victim %d has no usable frame (%d,%d,%v)", id, off, size, ok)
		}
		spans[id] = span{off, size}
	}

	m := New(db, Config{
		ScrubInterval:        2 * time.Millisecond,
		ScrubRate:            0, // full speed: every victim re-checked many times
		Workers:              4,
		CompactCheckInterval: 0, // see the doc comment
	})
	m.Start(context.Background())

	done := make(chan struct{})
	var wg sync.WaitGroup

	// Flip loop: one victim at a time, always recorded as flipped BEFORE
	// the bytes change, so detection accounting can never miss one.
	var flipMu sync.Mutex
	flipped := make(map[int64]bool, nVictims)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(4242))
		interval := dur / time.Duration(nVictims+1)
		for _, id := range victims {
			select {
			case <-done:
				return
			case <-time.After(interval):
			}
			sp := spans[id]
			// Flip a random payload byte (offset 8+ skips the header; a
			// header flip is equally detectable but exercises less).
			payloadOff := sp.off + 8 + rng.Int63n(sp.size-8)
			flipMu.Lock()
			flipped[id] = true
			flipMu.Unlock()
			if err := faultfs.FlipByte(journalPath(dir), payloadOff, 1<<uint(rng.Intn(8))); err != nil {
				panic(err)
			}
		}
	}()

	// Ingest workers.
	insertedIDs := make(chan int64, 8192)
	for w := 0; w < 2; w++ {
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
				id, err := db.Insert("traffic", 1000+w, mesh, fixedSet(opts, 100+rng.Float64()*50))
				if err != nil {
					panic(err)
				}
				select {
				case insertedIDs <- id:
				default:
				}
			}
		}(w)
	}
	// Deleter: only ever deletes traffic records, never victims.
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
	// Query workers: snapshot the quarantine set, query, and assert no
	// result was already quarantined at snapshot time. (A record
	// quarantined *between* snapshot and query is a benign race; one
	// served after its quarantine was visible is the bug this hunts.)
	errs := make(chan string, 16)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				pre := make(map[int64]bool)
				for _, q := range db.Quarantined() {
					pre[q.ID] = true
				}
				k := features.CoreKinds[rng.Intn(len(features.CoreKinds))]
				q := fixedSet(opts, rng.Float64()*150)[k]
				nn, err := db.KNN(k, q, 10)
				if err != nil {
					panic(err)
				}
				for _, n := range nn {
					if pre[n.ID] {
						select {
						case errs <- "query returned quarantined record":
						default:
						}
						return
					}
				}
			}
		}(r)
	}

	time.Sleep(dur + 100*time.Millisecond)
	close(done)
	wg.Wait()
	m.Stop()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}

	// Final sweep: whatever the background passes missed gets one last
	// full-speed scrub before the accounting.
	m.ScrubOnce(context.Background())

	flipMu.Lock()
	nFlipped := len(flipped)
	flipMu.Unlock()
	if nFlipped == 0 {
		t.Fatal("soak flipped nothing")
	}
	quarantined := make(map[int64]bool)
	for _, q := range db.Quarantined() {
		quarantined[q.ID] = true
	}
	// 1. Detection is complete: every flip was found and quarantined.
	for id := range flipped {
		if !quarantined[id] {
			f := db.VerifyRecord(id)
			t.Errorf("flipped victim %d not quarantined (verify now says %v: %s)", id, f.State, f.Detail)
		}
		if _, ok := db.Get(id); ok {
			t.Errorf("flipped victim %d still served", id)
		}
	}
	// 2. No false positives: only flipped records were quarantined.
	for id := range quarantined {
		if !flipped[id] {
			t.Errorf("record %d quarantined without a flip", id)
		}
	}
	// 3. Unflipped victims are intact and clean.
	for _, id := range victims {
		if flipped[id] {
			continue
		}
		if f := db.VerifyRecord(id); f.State != shapedb.ScrubClean {
			t.Errorf("unflipped victim %d: %v (%s)", id, f.State, f.Detail)
		}
	}
	// 4. The healing path: compaction rewrites the journal from intact
	// memory, after which every surviving record re-verifies clean and a
	// reopened DB sees the full live set.
	if cr := m.CompactIfNeeded(); cr == nil || cr.Trigger != "quarantine-heal" || cr.Error != "" {
		t.Fatalf("post-soak heal compaction: %+v", cr)
	}
	rep := m.ScrubOnce(context.Background())
	if len(rep.Findings) != 0 {
		t.Fatalf("scrub after heal still finds damage: %+v", rep.Findings)
	}
	liveBefore := db.Len()
	db.Close()
	re, err := shapedb.Open(dir, features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rr := re.Recovery(); rr.Degraded() {
		t.Fatalf("healed journal still degraded on reopen: %+v", rr)
	}
	if re.Len() != liveBefore {
		t.Fatalf("reopened Len = %d, want %d", re.Len(), liveBefore)
	}
}
