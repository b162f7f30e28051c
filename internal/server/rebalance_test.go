package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"threedess/internal/features"
	"threedess/internal/geom"
	"threedess/internal/replica"
	"threedess/internal/scatter"
	"threedess/internal/shapedb"
)

// Live-rebalancing tests (DESIGN.md §14), quiescent side: grow and shrink
// migrations leave every record on exactly its new owner with searches
// bit-identical to the single-node oracle at every phase, a crashed
// driver resumes from the persisted state journal at a higher term, the
// 409 epoch exchange self-heals a stale participant, and the admin
// endpoint drives the whole thing over HTTP. The under-traffic half lives
// in rebalance_chaos_test.go.

// addJoining boots n joining shard servers (slots from..from+n-1 of the
// post-migration fleet) and returns their specs for MigrateOptions.Add.
// Their DBs are appended to tc.shardDBs so placement checks cover them.
func (tc *testCluster) addJoining(t *testing.T, n int, withFaults bool) []scatter.ShardSpec {
	t.Helper()
	from := len(tc.shardDBs)
	var specs []scatter.ShardSpec
	for i := 0; i < n; i++ {
		db, _, srv := newNode(t)
		if _, err := srv.SetShardJoining(from + i); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		tc.shardDBs = append(tc.shardDBs, db)
		spec := scatter.ShardSpec{Endpoints: []string{ts.URL}}
		if withFaults {
			f := replica.NewFaultRT(nil)
			tc.faults = append(tc.faults, f)
			spec.Transport = f
		}
		specs = append(specs, spec)
	}
	return specs
}

// checkPlacement asserts every record of the reference node lives on
// exactly the shard the given ring owns it to — no duplicates, no strays,
// nothing missing.
func (tc *testCluster) checkPlacement(t *testing.T, ring *scatter.Ring, shards int) {
	t.Helper()
	sum := 0
	for s := 0; s < shards; s++ {
		sum += tc.shardDBs[s].Len()
	}
	ids := tc.refDB.IDs()
	if sum != len(ids) {
		t.Errorf("fleet holds %d records across %d shards, want %d", sum, shards, len(ids))
	}
	for _, id := range ids {
		owner := ring.Owner(id)
		for s := 0; s < shards; s++ {
			_, ok := tc.shardDBs[s].Get(id)
			if ok && s != owner {
				t.Errorf("id %d found on shard %d, owned by %d", id, s, owner)
			}
			if !ok && s == owner {
				t.Errorf("id %d missing from its owner shard %d", id, owner)
			}
		}
	}
}

// equivalence asserts a small battery of top-k and threshold searches
// matches the single-node oracle bit for bit, right now.
func (tc *testCluster) equivalence(t *testing.T, tag string) {
	t.Helper()
	feature := features.PrincipalMoments.String()
	thr := 0.5
	for _, req := range []SearchRequest{
		{QueryVector: []float64{0.4, 0.6, 0.2}, Feature: feature, K: 12, Weights: []float64{1.2, 0.8, 1.0}},
		{QueryVector: []float64{0.7, 0.1, 0.9}, Feature: feature, K: 200, Weights: []float64{1, 1, 1}},
		{QueryVector: []float64{0.3, 0.3, 0.3}, Feature: feature, Threshold: &thr, Weights: []float64{0.9, 1.1, 1.0}},
	} {
		cluster, ref := tc.searchBoth(t, req)
		if !reflect.DeepEqual(cluster, ref) {
			t.Fatalf("%s: cluster != reference\ncluster: %+v\nref:     %+v", tag, cluster, ref)
		}
	}
}

// phaseHook adapts a Logf sink into per-phase callbacks: the Migrator
// logs "rebalance: <phase>" at the START of each phase, i.e. after the
// previous phase (including its state pushes) completed.
func phaseHook(fn func(phase string)) func(string, ...any) {
	return func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		if rest, ok := strings.CutPrefix(line, "rebalance: "); ok && !strings.Contains(rest, " ") {
			fn(rest)
		}
	}
}

// TestRebalanceGrowEquivalenceEveryPhase is the tentpole acceptance in
// quiescent form: a 4→6 grow of a corpus whose extreme point was deleted,
// with the search battery re-run against the oracle at the start of every
// phase — after prepare (writes rerouted, nothing moved), mid-state with
// records on BOTH rings (dedup at merge), after cutover (double-routed
// reads), after the drop, and after finalize.
func TestRebalanceGrowEquivalenceEveryPhase(t *testing.T) {
	const corpus = 60
	tc := newTestCluster(t, 4, fastPolicy(), false)
	tc.seedSynthetic(t, corpus)
	add := tc.addJoining(t, 2, false)
	tc.deleteExtreme(t)
	tc.equivalence(t, "pre-migration")

	phases := []string{}
	m := scatter.NewMigrator(tc.coord, scatter.MigrateOptions{
		Target: 6, Add: add, BatchSize: 7,
		Logf: phaseHook(func(phase string) {
			phases = append(phases, phase)
			if phase != "prepare" { // at "prepare" nothing is pushed yet
				tc.equivalence(t, "at phase "+phase)
			}
		}),
	})
	if err := m.Run(context.Background()); err != nil {
		t.Fatalf("migration failed: %v", err)
	}
	want := []string{"prepare", "copy", "verify", "cutover", "drop", "finalize", "done"}
	if !reflect.DeepEqual(phases, want) {
		t.Fatalf("phases = %v, want %v", phases, want)
	}

	st := tc.coord.State()
	if st.Epoch != 4 || st.Shards != 6 || st.Transitioning() {
		t.Fatalf("final state = %+v, want static epoch 4 over 6 shards", st)
	}
	newRing, err := scatter.NewRing(6)
	if err != nil {
		t.Fatal(err)
	}
	tc.checkPlacement(t, newRing, 6)
	tc.equivalence(t, "post-migration")

	status := m.Status()
	if status.Phase != "done" || status.Active || status.Err != "" {
		t.Fatalf("status = %+v", status)
	}
	if status.Copied == 0 || status.Dropped != status.Copied {
		t.Fatalf("copied %d, dropped %d — every copied record should eventually drop from its source",
			status.Copied, status.Dropped)
	}
}

// TestRebalanceShrink drains the last shard of a 4-shard cluster onto the
// survivors: the removed shard ends empty, the survivors hold everything
// on new-ring placement, and searches stay bit-identical.
func TestRebalanceShrink(t *testing.T) {
	const corpus = 48
	tc := newTestCluster(t, 4, fastPolicy(), false)
	tc.seedSynthetic(t, corpus)
	tc.equivalence(t, "pre-shrink")

	m := scatter.NewMigrator(tc.coord, scatter.MigrateOptions{Target: 3})
	if err := m.Run(context.Background()); err != nil {
		t.Fatalf("shrink failed: %v", err)
	}
	if st := tc.coord.State(); st.Epoch != 4 || st.Shards != 3 {
		t.Fatalf("final state = %+v, want epoch 4 over 3 shards", st)
	}
	if n := tc.shardDBs[3].Len(); n != 0 {
		t.Errorf("removed shard still holds %d records", n)
	}
	newRing, _ := scatter.NewRing(3)
	tc.checkPlacement(t, newRing, 3)
	tc.equivalence(t, "post-shrink")
}

// TestRebalanceResumeAfterDriverCrash kills the driver (context cancel —
// the process-death equivalent) mid-migration and resumes with a FRESH
// Migrator from the same state journal: the resumed run fences at a
// higher term, skips verified work, and finishes with the same end state
// as an uninterrupted run.
func TestRebalanceResumeAfterDriverCrash(t *testing.T) {
	const corpus = 60
	tc := newTestCluster(t, 4, fastPolicy(), false)
	tc.seedSynthetic(t, corpus)
	add := tc.addJoining(t, 2, false)
	statePath := filepath.Join(t.TempDir(), "rebalance.state")

	ctx, cancel := context.WithCancel(context.Background())
	m1 := scatter.NewMigrator(tc.coord, scatter.MigrateOptions{
		Target: 6, Add: add, BatchSize: 5, StatePath: statePath,
		Logf: phaseHook(func(phase string) {
			if phase == "verify" {
				cancel() // die with copies landed but nothing cut over
			}
		}),
	})
	if err := m1.Run(ctx); err == nil {
		t.Fatal("canceled migration reported success")
	}
	if st := tc.coord.State(); !st.Transitioning() {
		t.Fatalf("mid-crash state = %+v, want transitioning", st)
	}
	// The interrupted fleet still answers correctly: prepare is live,
	// copies are partial duplicates at worst, dedup covers them.
	tc.equivalence(t, "after driver crash")

	m2 := scatter.NewMigrator(tc.coord, scatter.MigrateOptions{StatePath: statePath})
	if err := m2.Run(context.Background()); err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if got := m2.Status().Term; got != m1.Status().Term+1 {
		t.Errorf("resumed term %d, want %d (fence above the dead driver)", got, m1.Status().Term+1)
	}
	if st := tc.coord.State(); st.Epoch != 4 || st.Shards != 6 || st.Transitioning() {
		t.Fatalf("final state = %+v, want static epoch 4 over 6 shards", st)
	}
	newRing, _ := scatter.NewRing(6)
	tc.checkPlacement(t, newRing, 6)
	tc.equivalence(t, "post-resume")

	// Nothing left to resume: the journal ends in done.
	m3 := scatter.NewMigrator(tc.coord, scatter.MigrateOptions{StatePath: statePath})
	if _, _, err := m3.LoadPlan(); err == nil {
		t.Error("completed journal still offers a plan to resume")
	}
}

// TestRebalanceEpochSelfHeal pins the 409 exchange: a shard learning a
// newer ring state (as if another coordinator ran a migration) rejects
// the stale coordinator's next call, which adopts the shard's state and
// retries within the same client call — no error surfaces anywhere.
func TestRebalanceEpochSelfHeal(t *testing.T) {
	tc := newTestCluster(t, 2, fastPolicy(), false)
	tc.seedSynthetic(t, 24)

	// Push an epoch-2 state (same topology, newer term) straight to shard 0.
	var eps [][]string
	for _, spec := range tc.coord.Specs() {
		eps = append(eps, spec.Endpoints)
	}
	newer := scatter.RingState{Epoch: 2, Term: 1, Holder: "op", Shards: 2, Endpoints: eps}
	body, _ := json.Marshal(newer)
	resp, err := http.Post(eps[0][0]+RingPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("state push answered %d", resp.StatusCode)
	}
	if tc.coord.Epoch() != 1 {
		t.Fatal("coordinator learned the new epoch before any call")
	}

	// The next scatter query hits shard 0's gate, heals, and still answers
	// bit-identically.
	tc.equivalence(t, "across epoch heal")
	if got := tc.coord.Epoch(); got != 2 {
		t.Fatalf("coordinator at epoch %d after heal, want 2", got)
	}

	// The other direction: shard 1 is now the stale side; the coordinator's
	// next call to it pushes epoch 2 down. Searches above already did this
	// — confirm via the shard's own ring endpoint.
	r2, err := http.Get(eps[1][0] + RingPath)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var got scatter.RingState
	if err := json.NewDecoder(r2.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 2 {
		t.Fatalf("shard 1 still at epoch %d, want 2 (pushed during heal)", got.Epoch)
	}
}

// TestRebalanceAdminEndpoint drives a 2→3 grow purely over HTTP: POST
// starts it (202), GET reports progress, and the final placement matches
// the new ring. Also pins the conflict answer for a second concurrent
// start.
func TestRebalanceAdminEndpoint(t *testing.T) {
	const corpus = 30
	tc := newTestCluster(t, 2, fastPolicy(), false)
	tc.seedSynthetic(t, corpus)
	add := tc.addJoining(t, 1, false)

	reqBody, _ := json.Marshal(map[string]any{
		"target": 3, "add": [][]string{add[0].Endpoints}, "batch_size": 8,
	})
	resp, err := http.Post(tc.coordURL+"/api/admin/rebalance", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST answered %d, want 202", resp.StatusCode)
	}

	status := func() scatter.MigrationStatus {
		r, err := http.Get(tc.coordURL + "/api/admin/rebalance")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var st scatter.MigrationStatus
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	waitUntil(t, 30*time.Second, "rebalance to finish", func() bool {
		return status().Phase == "done"
	})
	if st := status(); st.Err != "" || st.From != 2 || st.To != 3 {
		t.Fatalf("final status = %+v", st)
	}
	newRing, _ := scatter.NewRing(3)
	tc.checkPlacement(t, newRing, 3)
	tc.equivalence(t, "post-admin-rebalance")

	// The stats surface reports the ring and (on the coordinator) the last
	// migration.
	r, err := http.Get(tc.coordURL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(r.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Ring == nil || stats.Ring.Epoch != 4 || stats.Ring.Shards != 3 {
		t.Fatalf("stats ring = %+v, want epoch 4 over 3 shards", stats.Ring)
	}
	if stats.Rebalance == nil || stats.Rebalance.Phase != "done" {
		t.Fatalf("stats rebalance = %+v, want done", stats.Rebalance)
	}
}

// TestRebalanceInsertsRouteByWriteRing pins the zombie-safety invariant's
// write half quiescently: with a prepare state installed by a real
// migration start, a routed insert lands on its TARGET-ring owner, so the
// source enumeration can never see it as a moved record.
func TestRebalanceInsertsRouteByWriteRing(t *testing.T) {
	tc := newTestCluster(t, 2, fastPolicy(), false)
	tc.seedSynthetic(t, 20)
	add := tc.addJoining(t, 1, false)

	// Hold the migration right after prepare lands by injecting a pause
	// via the phase hook, insert mid-hold, then let it finish.
	holding := make(chan struct{})
	release := make(chan struct{})
	m := scatter.NewMigrator(tc.coord, scatter.MigrateOptions{
		Target: 3, Add: add,
		Logf: phaseHook(func(phase string) {
			if phase == "copy" {
				close(holding)
				<-release
			}
		}),
	})
	done := make(chan error, 1)
	go func() { done <- m.Run(context.Background()) }()
	<-holding

	newRing, _ := scatter.NewRing(3)
	var landed []int64
	for i := 0; i < 8; i++ {
		id, err := tc.coordC.InsertShape(fmt.Sprintf("mid-%d", i), 1, geom.Box(geom.V(0, 0, 0), geom.V(2, 1, 1)))
		if err != nil {
			t.Fatalf("insert during prepare: %v", err)
		}
		landed = append(landed, id)
		owner := newRing.Owner(id)
		if _, ok := tc.shardDBs[owner].Get(id); !ok {
			t.Fatalf("mid-migration insert %d not on its write-ring owner %d", id, owner)
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("migration failed: %v", err)
	}
	// Post-migration the records are exactly where the final ring wants
	// them — moved nowhere, duplicated nowhere.
	for _, id := range landed {
		if shapedbCount(tc.shardDBs, id) != 1 {
			t.Fatalf("insert %d present on %d shards after migration", id, shapedbCount(tc.shardDBs, id))
		}
		if _, ok := tc.shardDBs[newRing.Owner(id)].Get(id); !ok {
			t.Fatalf("insert %d missing from final owner", id)
		}
	}
}

func shapedbCount(dbs []*shapedb.DB, id int64) int {
	n := 0
	for _, db := range dbs {
		if _, ok := db.Get(id); ok {
			n++
		}
	}
	return n
}
