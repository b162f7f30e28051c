package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"threedess/internal/core"
	"threedess/internal/features"
	"threedess/internal/geom"
	"threedess/internal/scatter"
	"threedess/internal/shapedb"
)

// brownoutServer boots a server with the given config over a synthetic
// corpus of m vectors (explicit ids 1..m, PrincipalMoments only).
func brownoutServer(t *testing.T, cfg Config, m int) (*Server, *httptest.Server, *shapedb.DB) {
	t.Helper()
	db, api := newNodeCfg2(t, cfg)
	seedVectors(t, db, m)
	ts := httptest.NewServer(api)
	t.Cleanup(ts.Close)
	return api, ts, db
}

// newNodeCfg2 is newNodeCfg returning the db and server only.
func newNodeCfg2(t *testing.T, cfg Config) (*shapedb.DB, *Server) {
	t.Helper()
	db, _, api := newNodeCfg(t, cfg)
	return db, api
}

func seedVectors(t *testing.T, db *shapedb.DB, m int) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))
	for i := 1; i <= m; i++ {
		vec := features.Vector{rng.Float64(), rng.Float64(), rng.Float64()}
		set := features.Set{features.PrincipalMoments: vec}
		opts := shapedb.InsertOpts{ID: int64(i)}
		if _, err := db.InsertWith(fmt.Sprintf("s-%d", i), i%5, mesh, set, opts); err != nil {
			t.Fatal(err)
		}
	}
}

// postSearch sends a raw POST /api/search and returns the response plus
// its whole body (the caller inspects headers and bytes).
func postSearch(t *testing.T, base string, req SearchRequest, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, base+"/api/search", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		hr.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// fillGate occupies n admission slots and returns a release func.
func fillGate(t *testing.T, s *Server, n int) func() {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case s.gate <- struct{}{}:
		default:
			t.Fatalf("gate already full at slot %d", i)
		}
	}
	return func() {
		for i := 0; i < n; i++ {
			<-s.gate
		}
	}
}

func weightedQuery(k int) SearchRequest {
	return SearchRequest{
		QueryVector: []float64{0.3, 0.7, 0.4},
		Feature:     features.PrincipalMoments.String(),
		K:           k,
		Weights:     []float64{1.1, 0.9, 1.0},
	}
}

// The tier ladder is driven by in-flight depth, bumped one step by the
// decayed latency signal; Retry-After hints derive from both and stay
// inside [1, 30].
func TestTierFromPressure(t *testing.T) {
	api, _, _ := brownoutServer(t, Config{MaxInFlight: 8}, 0)
	if got := api.currentTier(); got != TierFull {
		t.Errorf("idle tier = %v, want full", got)
	}
	release := fillGate(t, api, 4)
	if got := api.currentTier(); got != TierCoarse {
		t.Errorf("tier at 4/8 = %v, want coarse", got)
	}
	release()
	release = fillGate(t, api, 7)
	if got := api.currentTier(); got != TierCacheOnly {
		t.Errorf("tier at 7/8 = %v, want cache-only", got)
	}
	release()

	// A slow-latency signal bumps the tier one step even at low depth.
	api.press.observe(3 * time.Second)
	if got := api.currentTier(); got != TierCoarse {
		t.Errorf("tier with 3s EWMA at empty gate = %v, want coarse", got)
	}
	// Retry-After scales with the latency signal and clamps to [1, 30].
	hint := func() int {
		rec := httptest.NewRecorder()
		api.setRetryAfter(rec)
		secs, err := strconv.Atoi(rec.Header().Get("Retry-After"))
		if err != nil {
			t.Fatalf("Retry-After %q: %v", rec.Header().Get("Retry-After"), err)
		}
		return secs
	}
	if secs := hint(); secs < 3 || secs > 30 {
		t.Errorf("Retry-After = %d, want within [3, 30] under a 3s EWMA", secs)
	}
	api.press.ewmaNanos.Store(int64(10 * time.Minute))
	release = fillGate(t, api, 8)
	if secs := hint(); secs != 30 {
		t.Errorf("Retry-After = %d, want clamped to 30", secs)
	}
	release()
	api.press.ewmaNanos.Store(0)
	if secs := hint(); secs != 1 {
		t.Errorf("Retry-After with no history = %d, want 1", secs)
	}
}

// Exact answers are cached: the second identical query is a bit-identical
// cache hit with the same ETag, If-None-Match answers 304, and a write
// invalidates the entry.
func TestSearchCacheFillHitETagInvalidation(t *testing.T) {
	api, ts, db := brownoutServer(t, Config{}, 24)
	req := weightedQuery(5)

	resp1, body1 := postSearch(t, ts.URL, req, nil)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first search: HTTP %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get(CacheHeader); got != "fill" {
		t.Errorf("first search X-Cache = %q, want fill", got)
	}
	etag := resp1.Header.Get("ETag")
	if etag == "" {
		t.Fatal("exact answer carries no ETag")
	}
	if resp1.Header.Get(DegradedHeader) != "" {
		t.Errorf("exact answer marked degraded: %q", resp1.Header.Get(DegradedHeader))
	}

	resp2, body2 := postSearch(t, ts.URL, req, nil)
	if got := resp2.Header.Get(CacheHeader); got != "hit" {
		t.Errorf("second search X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cache hit is not bit-identical to the fill")
	}
	if resp2.Header.Get("ETag") != etag {
		t.Errorf("hit ETag %q != fill ETag %q", resp2.Header.Get("ETag"), etag)
	}

	resp3, _ := postSearch(t, ts.URL, req, map[string]string{"If-None-Match": etag})
	if resp3.StatusCode != http.StatusNotModified {
		t.Errorf("If-None-Match with current ETag: HTTP %d, want 304", resp3.StatusCode)
	}

	// One entry per answer: every spelling that promises the exact
	// answer hits the entry the mode-less request filled.
	for _, mode := range []string{"twostage", "two-stage", "exact", "auto", ""} {
		alias := req
		alias.ScanMode = mode
		rb, body := postSearch(t, ts.URL, alias, nil)
		if got := rb.Header.Get(CacheHeader); got != "hit" || !bytes.Equal(body, body1) {
			t.Errorf("scan_mode %q: X-Cache = %q (want hit), body identical = %v", mode, got, bytes.Equal(body, body1))
		}
	}
	if n := api.qcache.len(); n != 1 {
		t.Errorf("one answer occupies %d cache entries", n)
	}

	// A mutation bumps the data version: the old ETag no longer matches
	// and the next search recomputes.
	seedExtra(t, db, 1000)
	resp4, _ := postSearch(t, ts.URL, req, map[string]string{"If-None-Match": etag})
	if resp4.StatusCode == http.StatusNotModified {
		t.Fatal("stale ETag still answered 304 after a write")
	}
	if got := resp4.Header.Get(CacheHeader); got != "fill" {
		t.Errorf("post-write search X-Cache = %q, want fill (recomputed)", got)
	}
	if resp4.Header.Get("ETag") == etag {
		t.Error("ETag unchanged across a data-version bump")
	}
}

func seedExtra(t *testing.T, db *shapedb.DB, id int64) {
	t.Helper()
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(2, 1, 1))
	set := features.Set{features.PrincipalMoments: features.Vector{0.9, 0.1, 0.5}}
	if _, err := db.InsertWith(fmt.Sprintf("s-%d", id), 1, mesh, set, shapedb.InsertOpts{ID: id}); err != nil {
		t.Fatal(err)
	}
}

// The shape view endpoint is ETagged against the data version too.
func TestViewETagRoundTrip(t *testing.T) {
	_, ts, db := brownoutServer(t, Config{}, 4)
	get := func(hdr map[string]string) *http.Response {
		hr, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/shapes/1/view", nil)
		for k, v := range hdr {
			hr.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	r1 := get(nil)
	etag := r1.Header.Get("ETag")
	if r1.StatusCode != http.StatusOK || etag == "" {
		t.Fatalf("view: HTTP %d, ETag %q", r1.StatusCode, etag)
	}
	if r2 := get(map[string]string{"If-None-Match": etag}); r2.StatusCode != http.StatusNotModified {
		t.Errorf("view revalidation: HTTP %d, want 304", r2.StatusCode)
	}
	seedExtra(t, db, 2000)
	if r3 := get(map[string]string{"If-None-Match": etag}); r3.StatusCode != http.StatusOK {
		t.Errorf("view after write: HTTP %d, want 200 (version changed)", r3.StatusCode)
	}
}

// The coarse tier swaps weighted searches onto the filter-only path and
// marks them; explicit exact requests, unweighted queries, and
// cluster-internal fan-out calls are never degraded; coarse answers are
// never cached.
func TestCoarseTierMarksTruthfully(t *testing.T) {
	api, ts, _ := brownoutServer(t, Config{MaxInFlight: 8}, 24)
	release := fillGate(t, api, 4) // next admitted request sits at 5/8 = coarse
	defer release()

	resp, body := postSearch(t, ts.URL, weightedQuery(5), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coarse-tier search: HTTP %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(DegradedHeader); got != DegradedCoarse {
		t.Fatalf("X-Degraded = %q, want %q", got, DegradedCoarse)
	}
	if resp.Header.Get("ETag") != "" || resp.Header.Get(CacheHeader) != "" {
		t.Error("degraded answer carried cache headers")
	}
	if api.qcache.len() != 0 {
		t.Errorf("coarse answer was cached (%d entries)", api.qcache.len())
	}

	// An explicit exact request opted out of approximation.
	exact := weightedQuery(5)
	exact.ScanMode = "exact"
	resp, _ = postSearch(t, ts.URL, exact, nil)
	if got := resp.Header.Get(DegradedHeader); got != "" {
		t.Errorf("explicit exact request degraded to %q", got)
	}

	// Unweighted queries are always answered exactly: nothing to degrade.
	plain := SearchRequest{
		QueryVector: []float64{0.3, 0.7, 0.4},
		Feature:     features.PrincipalMoments.String(),
		K:           5,
	}
	resp, _ = postSearch(t, ts.URL, plain, nil)
	if got := resp.Header.Get(DegradedHeader); got != "" {
		t.Errorf("unweighted query degraded to %q", got)
	}
	// Asking for coarse by name changes nothing: the answer is exact —
	// unmarked, and the entry just filled serves it.
	plain.ScanMode = "coarse"
	resp, _ = postSearch(t, ts.URL, plain, nil)
	if deg, xc := resp.Header.Get(DegradedHeader), resp.Header.Get(CacheHeader); deg != "" || xc != "hit" {
		t.Errorf("unweighted scan_mode=coarse: X-Degraded %q, X-Cache %q; want unmarked cache hit", deg, xc)
	}

	// A coordinator's fan-out call (DMax set) must never be quietly
	// degraded — the shard answers exactly or not at all.
	internal := weightedQuery(5)
	dmax := 10.0
	internal.DMax = &dmax
	resp, _ = postSearch(t, ts.URL, internal, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("internal fan-out call: HTTP %d", resp.StatusCode)
	}
	if got := resp.Header.Get(DegradedHeader); got != "" {
		t.Errorf("internal fan-out call degraded to %q", got)
	}
}

// The cache-only tier serves cached answers (stale ones marked) and
// sheds everything else with 429 — never 5xx. The gate-full floor still
// serves cached searches from memory.
func TestCacheOnlyTierAndShedFloor(t *testing.T) {
	api, ts, db := brownoutServer(t, Config{MaxInFlight: 8}, 24)
	warm := weightedQuery(5)
	resp, warmBody := postSearch(t, ts.URL, warm, nil) // fill at TierFull
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm search: HTTP %d", resp.StatusCode)
	}

	release := fillGate(t, api, 7) // admitted request sits at 8/8 = cache-only
	resp, body := postSearch(t, ts.URL, warm, nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(CacheHeader) != "hit" {
		t.Fatalf("cached query under cache-only tier: HTTP %d, X-Cache %q",
			resp.StatusCode, resp.Header.Get(CacheHeader))
	}
	if resp.Header.Get(DegradedHeader) != "" {
		t.Error("fresh cache hit marked degraded")
	}
	if !bytes.Equal(body, warmBody) {
		t.Error("cache-only serve not bit-identical to the exact fill")
	}

	// Uncached query: shed with 429 + Retry-After, not 5xx.
	cold := weightedQuery(7)
	resp, _ = postSearch(t, ts.URL, cold, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("uncached query under cache-only tier: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	release()

	// Make the cached entry stale, then re-enter cache-only: the stale
	// answer serves, explicitly marked, with no ETag.
	seedExtra(t, db, 3000)
	release = fillGate(t, api, 7)
	resp, _ = postSearch(t, ts.URL, warm, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale cached query under cache-only tier: HTTP %d", resp.StatusCode)
	}
	if got := resp.Header.Get(DegradedHeader); got != DegradedCacheOnly {
		t.Errorf("stale cache serve X-Degraded = %q, want %q", got, DegradedCacheOnly)
	}
	if resp.Header.Get("ETag") != "" {
		t.Error("stale cache serve carried an ETag")
	}
	release()

	// Gate completely full: the ServeHTTP floor still serves cached
	// searches from memory without a slot; everything else sheds 429.
	release = fillGate(t, api, 8)
	defer release()
	resp, _ = postSearch(t, ts.URL, warm, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached search at full gate: HTTP %d, want 200 from memory", resp.StatusCode)
	}
	if got := resp.Header.Get(DegradedHeader); got != DegradedCacheOnly {
		t.Errorf("full-gate stale serve X-Degraded = %q, want %q", got, DegradedCacheOnly)
	}
	resp, _ = postSearch(t, ts.URL, cold, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("uncached search at full gate: HTTP %d, want 429", resp.StatusCode)
	}
	hr, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/shapes", nil)
	lresp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, lresp.Body)
	lresp.Body.Close()
	if lresp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("listing at full gate: HTTP %d, want 429", lresp.StatusCode)
	}
}

// The ladder's core guarantee under churn: whatever the gate is doing,
// read traffic never sees a 5xx — answers are exact, degraded-and-
// marked, or shed with 429.
func TestBrownoutLadderNoRead5xx(t *testing.T) {
	api, ts, _ := brownoutServer(t, Config{MaxInFlight: 8}, 24)
	postSearch(t, ts.URL, weightedQuery(5), nil) // warm one cache entry

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // oscillate the gate through every tier
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			n := []int{0, 4, 7, 8}[i%4]
			var taken int
			for j := 0; j < n; j++ {
				select {
				case api.gate <- struct{}{}:
					taken++
				default:
				}
			}
			time.Sleep(time.Millisecond)
			for j := 0; j < taken; j++ {
				<-api.gate
			}
		}
	}()

	queries := []SearchRequest{weightedQuery(5), weightedQuery(3), {
		QueryVector: []float64{0.3, 0.7, 0.4},
		Feature:     features.PrincipalMoments.String(),
		K:           4,
	}}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				resp, body := postSearch(t, ts.URL, queries[(w+i)%len(queries)], nil)
				if resp.StatusCode >= 500 {
					t.Errorf("read got HTTP %d under brownout churn: %s", resp.StatusCode, body)
					return
				}
				if d := resp.Header.Get(DegradedHeader); d != "" && d != DegradedCoarse && d != DegradedCacheOnly {
					t.Errorf("unknown degradation marking %q", d)
					return
				}
			}
		}(w)
	}
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// Satellite contract: a partial cluster answer (missing shards) is never
// cached and never carries an ETag — replaying it later as the
// corpus-wide truth would silently shrink the corpus.
func TestPartialClusterAnswerNeverCached(t *testing.T) {
	tc := newTestClusterCfg(t, 3, chaosPolicy(), true, Config{})
	tc.seedSynthetic(t, 30)
	coord := tc.coordSrv

	reqA := weightedQuery(5)
	resp, bodyA := postSearch(t, tc.coordURL, reqA, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy query: HTTP %d: %s", resp.StatusCode, bodyA)
	}
	if resp.Header.Get(CacheHeader) != "fill" || resp.Header.Get("ETag") == "" {
		t.Fatalf("complete answer not cached: X-Cache %q, ETag %q",
			resp.Header.Get(CacheHeader), resp.Header.Get("ETag"))
	}

	const dead = 1
	tc.faults[dead].SetPartition(true)
	reqB := weightedQuery(8)
	for round := 0; round < 2; round++ {
		resp, body := postSearch(t, tc.coordURL, reqB, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("partial query round %d: HTTP %d: %s", round, resp.StatusCode, body)
		}
		if resp.Header.Get(scatter.PartialHeader) == "" {
			t.Fatalf("round %d: partial answer missing %s (served from cache?)", round, scatter.PartialHeader)
		}
		if resp.Header.Get("ETag") != "" {
			t.Errorf("round %d: partial answer carries an ETag", round)
		}
		if got := resp.Header.Get(CacheHeader); got != "" {
			t.Errorf("round %d: partial answer X-Cache = %q, want none", round, got)
		}
	}
	if n := coord.qcache.len(); n != 1 {
		t.Errorf("cache has %d entries after partial answers, want 1 (the complete one)", n)
	}

	// The complete answer cached before the outage still serves — the
	// cache rides out a dead shard for queries it has already seen.
	resp, body := postSearch(t, tc.coordURL, reqA, nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(CacheHeader) != "hit" {
		t.Errorf("cached complete answer during outage: HTTP %d, X-Cache %q",
			resp.StatusCode, resp.Header.Get(CacheHeader))
	}
	if !bytes.Equal(body, bodyA) {
		t.Error("cached serve during outage not bit-identical")
	}

	// Healed: the partial query now merges in full and fills the cache.
	tc.faults[dead].SetPartition(false)
	waitUntil(t, 5*time.Second, "healed fleet to answer reqB in full", func() bool {
		resp, _ := postSearch(t, tc.coordURL, reqB, nil)
		return resp.StatusCode == http.StatusOK && resp.Header.Get(scatter.PartialHeader) == ""
	})
	resp, _ = postSearch(t, tc.coordURL, reqB, nil)
	if resp.Header.Get(CacheHeader) != "hit" || resp.Header.Get("ETag") == "" {
		t.Errorf("healed complete answer not cached: X-Cache %q, ETag %q",
			resp.Header.Get(CacheHeader), resp.Header.Get("ETag"))
	}
}

// A write routed through the coordinator bumps its cache generation:
// cached answers stop matching and the next search re-merges.
func TestCoordinatorWriteInvalidatesCache(t *testing.T) {
	tc := newTestClusterCfg(t, 2, fastPolicy(), false, Config{})
	tc.seedSynthetic(t, 16)

	req := weightedQuery(5)
	resp, _ := postSearch(t, tc.coordURL, req, nil)
	etag := resp.Header.Get("ETag")
	if resp.Header.Get(CacheHeader) != "fill" || etag == "" {
		t.Fatalf("first query not cached: X-Cache %q", resp.Header.Get(CacheHeader))
	}
	if resp, _ := postSearch(t, tc.coordURL, req, nil); resp.Header.Get(CacheHeader) != "hit" {
		t.Fatalf("second query X-Cache = %q, want hit", resp.Header.Get(CacheHeader))
	}

	mesh := geom.Box(geom.V(0, 0, 0), geom.V(3, 2, 1))
	if _, err := tc.coordC.InsertShape("routed", 1, mesh); err != nil {
		t.Fatal(err)
	}
	resp, _ = postSearch(t, tc.coordURL, req, nil)
	if got := resp.Header.Get(CacheHeader); got != "fill" {
		t.Errorf("post-write query X-Cache = %q, want fill (generation bumped)", got)
	}
	if resp.Header.Get("ETag") == etag {
		t.Error("ETag survived a routed write")
	}
}

// Under the coarse tier a coordinator forces coarse mode across the
// fleet and marks the merged answer once; shard-side nothing is marked.
func TestCoordinatorCoarseTier(t *testing.T) {
	tc := newTestClusterCfg(t, 2, fastPolicy(), false, Config{MaxInFlight: 8})
	tc.seedSynthetic(t, 24)
	coord := tc.coordSrv

	release := fillGate(t, coord, 4)
	defer release()
	resp, body := postSearch(t, tc.coordURL, weightedQuery(5), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coarse-tier cluster search: HTTP %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(DegradedHeader); got != DegradedCoarse {
		t.Errorf("X-Degraded = %q, want %q", got, DegradedCoarse)
	}
	if resp.Header.Get("ETag") != "" || coord.qcache.len() != 0 {
		t.Error("coarse merged answer was cached or ETagged")
	}
	var results []SearchResult
	if err := json.Unmarshal(body, &results); err != nil || len(results) == 0 {
		t.Fatalf("coarse merged answer unusable: %v (%d rows)", err, len(results))
	}

	// Explicit exact requests pass through unforced.
	exact := weightedQuery(5)
	exact.ScanMode = core.ScanExact.String()
	resp, _ = postSearch(t, tc.coordURL, exact, nil)
	if got := resp.Header.Get(DegradedHeader); got != "" {
		t.Errorf("explicit exact cluster search degraded to %q", got)
	}

	// An unweighted search is answered exactly by every shard even when
	// it names coarse: unmarked, cacheable, and the exact answer.
	plain := weightedQuery(5)
	plain.Weights = nil
	plain.ScanMode = core.ScanCoarse.String()
	resp, body = postSearch(t, tc.coordURL, plain, nil)
	if deg, xc := resp.Header.Get(DegradedHeader), resp.Header.Get(CacheHeader); deg != "" || xc != "fill" {
		t.Errorf("unweighted scan_mode=coarse cluster search: X-Degraded %q, X-Cache %q; want unmarked fill", deg, xc)
	}
	// Unit weights are a different cache key with the same exact answer.
	unit := weightedQuery(5)
	unit.Weights = []float64{1, 1, 1}
	unit.ScanMode = core.ScanExact.String()
	_, exactBody := postSearch(t, tc.coordURL, unit, nil)
	var named, exactRes []SearchResult
	if err := json.Unmarshal(body, &named); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(exactBody, &exactRes); err != nil {
		t.Fatal(err)
	}
	if len(named) == 0 || !reflect.DeepEqual(named, exactRes) {
		t.Errorf("unweighted scan_mode=coarse cluster answer is not the exact one\ngot:  %+v\nwant: %+v", named, exactRes)
	}
}
