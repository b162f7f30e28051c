package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"threedess/internal/core"
	"threedess/internal/features"
	"threedess/internal/geom"
	"threedess/internal/replica"
	"threedess/internal/scatter"
	"threedess/internal/shapedb"
)

// testCluster is a full in-process scatter-gather deployment: N shard
// servers, one coordinator routing over them, and a single reference node
// holding the same corpus — the oracle every merged answer must match bit
// for bit.
type testCluster struct {
	coordC   *Client
	coordURL string
	coordSrv *Server
	refC     *Client
	ring     *scatter.Ring
	coord    *scatter.Coordinator
	refDB    *shapedb.DB
	shardDBs []*shapedb.DB
	shards   []*Server
	faults   []*replica.FaultRT
}

// fastPolicy keeps cluster tests snappy: short retries/backoff, no
// hedging unless a test opts in (hedging is nondeterministic by design).
func fastPolicy() scatter.Policy {
	return scatter.Policy{
		Timeout:         5 * time.Second,
		Retries:         1,
		BackoffBase:     time.Millisecond,
		BackoffCap:      2 * time.Millisecond,
		HedgeAfter:      -1,
		MergeMargin:     5 * time.Millisecond,
		BreakerCooldown: 10 * time.Millisecond,
	}
}

func newNode(t *testing.T) (*shapedb.DB, *core.Engine, *Server) {
	return newNodeCfg(t, Config{})
}

func newNodeCfg(t *testing.T, cfg Config) (*shapedb.DB, *core.Engine, *Server) {
	t.Helper()
	db, err := shapedb.Open("", features.Options{VoxelResolution: 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	engine := core.NewEngine(db)
	return db, engine, NewWithConfig(engine, cfg)
}

// newTestCluster boots a cluster of `shards` shard nodes plus a
// coordinator and a reference node. withFaults threads a FaultRT between
// the coordinator and each shard for chaos injection.
func newTestCluster(t *testing.T, shards int, policy scatter.Policy, withFaults bool) *testCluster {
	// The result cache is disabled on this coordinator: a fresh hit would
	// answer repeated identical queries without touching a single shard,
	// masking exactly the fan-out behavior these fixtures exist to test.
	// Cache-path coverage uses newTestClusterCfg (see brownout tests).
	return newTestClusterCfg(t, shards, policy, withFaults, Config{CacheEntries: -1})
}

// newTestClusterCfg is newTestCluster with an explicit coordinator
// config, for tests exercising the coordinator's own brownout ladder.
func newTestClusterCfg(t *testing.T, shards int, policy scatter.Policy, withFaults bool, coordCfg Config) *testCluster {
	t.Helper()
	tc := &testCluster{}
	var specs []scatter.ShardSpec
	for i := 0; i < shards; i++ {
		db, _, srv := newNode(t)
		if _, err := srv.SetShard(i, shards); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		tc.shardDBs = append(tc.shardDBs, db)
		tc.shards = append(tc.shards, srv)
		spec := scatter.ShardSpec{Endpoints: []string{ts.URL}}
		if withFaults {
			f := replica.NewFaultRT(nil)
			tc.faults = append(tc.faults, f)
			spec.Transport = f
		}
		specs = append(specs, spec)
	}
	coord, err := scatter.New(specs, policy)
	if err != nil {
		t.Fatal(err)
	}
	tc.coord = coord
	tc.ring = coord.Ring()

	_, _, coordSrv := newNodeCfg(t, coordCfg)
	coordSrv.SetCoordinator(coord)
	tc.coordSrv = coordSrv
	cts := httptest.NewServer(coordSrv)
	t.Cleanup(cts.Close)
	tc.coordC, tc.coordURL = NewClient(cts.URL), cts.URL

	refDB, _, refSrv := newNode(t)
	rts := httptest.NewServer(refSrv)
	t.Cleanup(rts.Close)
	tc.refDB, tc.refC = refDB, NewClient(rts.URL)
	return tc
}

// seedSynthetic stores m synthetic records — explicit ids 1..m, vectors
// drawn from a seeded generator, every third record reusing the previous
// vector so distance ties are guaranteed — on the reference node and on
// each record's owning shard.
func (tc *testCluster) seedSynthetic(t *testing.T, m int) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))
	var prev features.Vector
	for i := 1; i <= m; i++ {
		vec := features.Vector{rng.Float64(), rng.Float64(), rng.Float64()}
		if i%3 == 0 && prev != nil {
			vec = append(features.Vector(nil), prev...) // exact duplicate → tie
		}
		prev = vec
		set := features.Set{features.PrincipalMoments: vec}
		name := fmt.Sprintf("syn-%d", i)
		opts := shapedb.InsertOpts{ID: int64(i)}
		if _, err := tc.refDB.InsertWith(name, i%7, mesh, set, opts); err != nil {
			t.Fatal(err)
		}
		shard := tc.ring.Owner(int64(i))
		if _, err := tc.shardDBs[shard].InsertWith(name, i%7, mesh, set, opts); err != nil {
			t.Fatal(err)
		}
	}
}

// deleteExtreme deletes, through the coordinator, every record at the
// corpus's largest first coordinate (a corner of its box; seedSynthetic's
// duplicates make it a set), then replaces the reference node by a fresh
// one seeded with only the survivors. Later checks thus compare the fleet
// with a node that holds the live state, not one that lived its history.
func (tc *testCluster) deleteExtreme(t *testing.T) {
	t.Helper()
	const kind = features.PrincipalMoments
	recs := tc.refDB.Snapshot()
	top := recs[0].Features[kind][0]
	for _, rec := range recs {
		top = max(top, rec.Features[kind][0])
	}
	refDB, _, refSrv := newNode(t)
	for _, rec := range recs {
		if rec.Features[kind][0] == top {
			if err := tc.coordC.DeleteShape(rec.ID); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if _, err := refDB.InsertWith(rec.Name, rec.Group, rec.Mesh, rec.Features, shapedb.InsertOpts{ID: rec.ID}); err != nil {
			t.Fatal(err)
		}
	}
	rts := httptest.NewServer(refSrv)
	t.Cleanup(rts.Close)
	tc.refDB, tc.refC = refDB, NewClient(rts.URL)
}

// searchBoth runs the same request against the coordinator and the
// reference node.
func (tc *testCluster) searchBoth(t *testing.T, req SearchRequest) (cluster, ref []SearchResult) {
	t.Helper()
	cluster, err := tc.coordC.Search(req)
	if err != nil {
		t.Fatalf("cluster search: %v", err)
	}
	ref, err = tc.refC.Search(req)
	if err != nil {
		t.Fatalf("reference search: %v", err)
	}
	return cluster, ref
}

// TestClusterMergeEquivalence is the core guarantee: scatter-gather top-k
// and threshold answers DeepEqual the single-node exact scan — bitwise
// distances and similarities, tie order included — across shard counts
// 1..8, random weights, K larger than any one shard's slice, and a corpus
// whose extreme point was deleted halfway through.
func TestClusterMergeEquivalence(t *testing.T) {
	const corpus = 60
	rng := rand.New(rand.NewSource(7))
	for shards := 1; shards <= 8; shards++ {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			tc := newTestCluster(t, shards, fastPolicy(), false)
			tc.seedSynthetic(t, corpus)
			feature := features.PrincipalMoments.String()
			for trial := 0; trial < 4; trial++ {
				if trial == 2 {
					tc.deleteExtreme(t)
				}
				qv := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
				weights := []float64{
					0.5 + rng.Float64(), 0.5 + rng.Float64(), 0.5 + rng.Float64(),
				}
				// K spans: tiny, larger than any shard's slice (corpus/shards),
				// and larger than the whole corpus.
				for _, k := range []int{3, corpus/shards + 5, corpus + 10} {
					req := SearchRequest{QueryVector: qv, Feature: feature, K: k, Weights: weights}
					cluster, ref := tc.searchBoth(t, req)
					if !reflect.DeepEqual(cluster, ref) {
						t.Fatalf("top-%d trial %d: cluster != reference\ncluster: %+v\nref:     %+v",
							k, trial, cluster, ref)
					}
				}
				for _, thr := range []float64{0.0, 0.4, 0.9} {
					thr := thr
					req := SearchRequest{QueryVector: qv, Feature: feature, Threshold: &thr, Weights: weights}
					cluster, ref := tc.searchBoth(t, req)
					if !reflect.DeepEqual(cluster, ref) {
						t.Fatalf("threshold %.1f trial %d: cluster != reference\ncluster: %+v\nref:     %+v",
							thr, trial, cluster, ref)
					}
				}
			}
		})
	}
}

// Nil weights on the coordinator are canonicalized to explicit uniform
// ones — arithmetically identical under Equation 4.3 — so the merged
// answer must match a uniformly weighted single-node scan bit for bit.
func TestClusterNilWeightsCanonicalized(t *testing.T) {
	tc := newTestCluster(t, 4, fastPolicy(), false)
	tc.seedSynthetic(t, 45)
	qv := []float64{0.3, 0.5, 0.7}
	feature := features.PrincipalMoments.String()
	cluster, err := tc.coordC.Search(SearchRequest{QueryVector: qv, Feature: feature, K: 20})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := tc.refC.Search(SearchRequest{
		QueryVector: qv, Feature: feature, K: 20, Weights: []float64{1, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cluster, ref) {
		t.Fatalf("nil-weight cluster answer != uniform-weight reference\ncluster: %+v\nref:     %+v", cluster, ref)
	}
}

// Every scan mode that promises the exact answer must produce the same
// merged bits.
func TestClusterScanModeEquivalence(t *testing.T) {
	tc := newTestCluster(t, 3, fastPolicy(), false)
	tc.seedSynthetic(t, 45)
	qv := []float64{0.2, 0.8, 0.4}
	weights := []float64{1.5, 0.7, 1.1}
	feature := features.PrincipalMoments.String()
	var answers [][]SearchResult
	for _, mode := range []string{"exact", "two-stage", "auto"} {
		res, err := tc.coordC.Search(SearchRequest{
			QueryVector: qv, Feature: feature, K: 15, Weights: weights, ScanMode: mode,
		})
		if err != nil {
			t.Fatalf("scan_mode %s: %v", mode, err)
		}
		answers = append(answers, res)
	}
	if !reflect.DeepEqual(answers[0], answers[1]) || !reflect.DeepEqual(answers[0], answers[2]) {
		t.Fatalf("exact, two-stage and auto cluster answers differ\n%+v", answers)
	}
	ref, err := tc.refC.Search(SearchRequest{QueryVector: qv, Feature: feature, K: 15, Weights: weights})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(answers[0], ref) {
		t.Fatalf("cluster != reference\ncluster: %+v\nref:     %+v", answers[0], ref)
	}
}

// Query-by-id on the coordinator resolves the vector from the owning
// shard and excludes the query shape, exactly like a single node.
func TestClusterSearchByIDEquivalence(t *testing.T) {
	tc := newTestCluster(t, 4, fastPolicy(), false)
	tc.seedSynthetic(t, 40)
	for _, qid := range []int64{1, 17, 40} {
		req := SearchRequest{
			QueryID: qid,
			Feature: features.PrincipalMoments.String(),
			K:       12,
			Weights: []float64{1, 1, 1},
		}
		cluster, ref := tc.searchBoth(t, req)
		if !reflect.DeepEqual(cluster, ref) {
			t.Fatalf("query_id %d: cluster != reference\ncluster: %+v\nref:     %+v", qid, cluster, ref)
		}
		for _, r := range cluster {
			if r.ID == qid {
				t.Fatalf("query shape %d present in its own results", qid)
			}
		}
	}
}

// Routed inserts allocate globally unique ids owned by the right shard,
// and reads proxy to the owner — the client cannot tell the cluster from
// a single node.
func TestClusterInsertRoutingAndReads(t *testing.T) {
	tc := newTestCluster(t, 3, fastPolicy(), false)
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(4, 2, 1))
	var ids []int64
	for i := 0; i < 6; i++ {
		id, err := tc.coordC.InsertShape(fmt.Sprintf("routed-%d", i), 1, mesh)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	seen := map[int64]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("id %d allocated twice", id)
		}
		seen[id] = true
		owner := tc.ring.Owner(id)
		if _, ok := tc.shardDBs[owner].Get(id); !ok {
			t.Fatalf("id %d not stored on its owning shard %d", id, owner)
		}
		info, err := tc.coordC.GetShape(id)
		if err != nil {
			t.Fatalf("GetShape(%d) via coordinator: %v", id, err)
		}
		if info.ID != id {
			t.Fatalf("GetShape(%d) returned id %d", id, info.ID)
		}
	}
	shapes, err := tc.coordC.ListShapes()
	if err != nil {
		t.Fatal(err)
	}
	if len(shapes) != len(ids) {
		t.Fatalf("merged listing has %d shapes, want %d", len(shapes), len(ids))
	}
	for i := 1; i < len(shapes); i++ {
		if shapes[i-1].ID >= shapes[i].ID {
			t.Fatalf("merged listing not sorted by id: %v then %v", shapes[i-1].ID, shapes[i].ID)
		}
	}
	if err := tc.coordC.DeleteShape(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, ok := tc.shardDBs[tc.ring.Owner(ids[0])].Get(ids[0]); ok {
		t.Fatal("deleted shape still on its shard")
	}
}

func TestClusterBatchInsertRoutes(t *testing.T) {
	tc := newTestCluster(t, 4, fastPolicy(), false)
	var batch []BatchShape
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(3, 2, 1))
	off, err := MeshToOFF(mesh)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		batch = append(batch, BatchShape{Name: fmt.Sprintf("b-%d", i), Group: 2, MeshOFF: off})
	}
	var resp BatchInsertResponse
	if err := tc.coordC.do(http.MethodPost, "/api/shapes/batch", BatchInsertRequest{Shapes: batch}, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.IDs) != len(batch) {
		t.Fatalf("%d ids for %d shapes", len(resp.IDs), len(batch))
	}
	total := 0
	for _, db := range tc.shardDBs {
		total += db.Len()
	}
	if total != len(batch) {
		t.Fatalf("shards hold %d records, want %d", total, len(batch))
	}
	for _, id := range resp.IDs {
		if _, ok := tc.shardDBs[tc.ring.Owner(id)].Get(id); !ok {
			t.Fatalf("batch id %d missing from its owning shard", id)
		}
	}
}

// A shard refuses explicit-id inserts the ring assigns elsewhere, so a
// misconfigured loader cannot split ownership.
func TestShardRejectsForeignID(t *testing.T) {
	const shards = 3
	db, _, srv := newNode(t)
	if _, err := srv.SetShard(0, shards); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	ring, _ := scatter.NewRing(shards)
	var foreign, owned int64
	for id := int64(1); id < 1000 && (foreign == 0 || owned == 0); id++ {
		if ring.Owner(id) == 0 {
			if owned == 0 {
				owned = id
			}
		} else if foreign == 0 {
			foreign = id
		}
	}
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))
	off, err := MeshToOFF(mesh)
	if err != nil {
		t.Fatal(err)
	}
	post := func(id int64) int {
		body, _ := json.Marshal(map[string]any{"name": "x", "group": 1, "mesh_off": off, "id": id})
		resp, err := http.Post(ts.URL+"/api/shapes", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if status := post(foreign); status != http.StatusUnprocessableEntity {
		t.Errorf("foreign id %d: status %d, want 422", foreign, status)
	}
	if status := post(owned); status != http.StatusCreated {
		t.Errorf("owned id %d: status %d, want 201", owned, status)
	}
	if db.Len() != 1 {
		t.Errorf("shard holds %d records, want 1", db.Len())
	}
}

// The whole-corpus endpoints have no scatter semantics and answer 501 on
// a coordinator instead of lying with partial state.
func TestCoordinatorRefusesWholeCorpusEndpoints(t *testing.T) {
	tc := newTestCluster(t, 2, fastPolicy(), false)
	tc.seedSynthetic(t, 10)
	for _, probe := range []struct {
		method, path string
		body         any
	}{
		{http.MethodPost, "/api/search/multistep", MultiStepRequest{QueryID: 1}},
		{http.MethodPost, "/api/feedback", FeedbackRequest{QueryID: 1}},
		{http.MethodGet, "/api/browse", nil},
	} {
		err := tc.coordC.do(probe.method, probe.path, probe.body, nil)
		if err == nil {
			t.Errorf("%s %s succeeded on a coordinator", probe.method, probe.path)
			continue
		}
		if !strings.Contains(err.Error(), "501") {
			t.Errorf("%s %s: err = %v, want 501", probe.method, probe.path, err)
		}
	}
}

// Coordinator stats aggregate the fleet and surface the operator view:
// role, per-shard health, and the global max id.
func TestClusterStatsAggregation(t *testing.T) {
	tc := newTestCluster(t, 3, fastPolicy(), false)
	tc.seedSynthetic(t, 30)
	st, err := tc.coordC.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shapes != 30 {
		t.Errorf("aggregate shapes = %d, want 30", st.Shapes)
	}
	if st.Role != "coordinator" {
		t.Errorf("role = %q", st.Role)
	}
	if st.MaxID != 30 {
		t.Errorf("max id = %d, want 30", st.MaxID)
	}
	if len(st.Shards) != 3 {
		t.Fatalf("%d shard health rows, want 3", len(st.Shards))
	}
	for i, sh := range st.Shards {
		if sh.Name != scatter.ShardName(i) {
			t.Errorf("shard row %d named %q", i, sh.Name)
		}
		if !sh.Healthy {
			t.Errorf("%s unhealthy in a fault-free cluster: %+v", sh.Name, sh)
		}
	}
	// A standalone node's stats carry no cluster role.
	shardStats, err := tc.refC.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if shardStats.Role != "" {
		t.Errorf("standalone node reports role %q", shardStats.Role)
	}
}

// Coordinator /readyz reflects fleet health: ready while any shard
// answers, 503 when none do.
func TestCoordinatorReadyz(t *testing.T) {
	tc := newTestCluster(t, 2, fastPolicy(), true)
	tc.seedSynthetic(t, 8)
	get := func() (int, map[string]any) {
		resp, err := http.Get(tc.coordURL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body
	}
	status, body := get()
	if status != http.StatusOK {
		t.Fatalf("healthy fleet: readyz = %d (%v)", status, body)
	}
	if body["cluster_role"] != "coordinator" {
		t.Errorf("cluster_role = %v", body["cluster_role"])
	}
	if n, ok := body["shards_healthy"].(float64); !ok || n != 2 {
		t.Errorf("shards_healthy = %v, want 2", body["shards_healthy"])
	}
	for _, f := range tc.faults {
		f.SetPartition(true)
	}
	status, body = get()
	if status != http.StatusServiceUnavailable {
		t.Fatalf("dead fleet: readyz = %d (%v), want 503", status, body)
	}
}
