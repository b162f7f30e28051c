package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"threedess/internal/server"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// A percentile is reportable only while ten samples lie beyond it.
func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// is what the acceptance driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %g, %g; Python gives 1, 4", q1, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread(1..10) = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func requestStream(t *testing.T, seed int64) []byte {
	t.Helper()
	g, err := newGenerator(seed, smokeSizes)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i := uint64(0); i < 3; i++ {
		buf.Write(g.qbeRequest(i))
		buf.Write(g.insertRequest("ingest", i))
	}
	for i := uint64(0); i < 200; i++ {
		buf.Write(g.scanRequest(i))
		buf.WriteByte(byte(g.hotIndex(i)))
	}
	for _, b := range g.hotBody {
		buf.Write(b)
	}
	pairs := g.idQueries()
	for _, p := range pairs {
		buf.Write(p.body())
	}
	for i := uint64(0); i < 200; i++ {
		q, _ := g.readerQuery(pairs, i)
		buf.Write(q.body())
	}
	for _, r := range g.rows()[:100] {
		buf.Write(mustJSON(r))
	}
	return buf.Bytes()
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	a, again, b := requestStream(t, 42), requestStream(t, 42), requestStream(t, 7)
	if !bytes.Equal(a, again) {
		t.Error("the same seed produced two different request streams")
	}
	if bytes.Equal(a, b) {
		t.Error("seeds 42 and 7 produced the same request stream")
	}
}

// search_hot must fit the result cache and search_scan must not: the two
// workloads sit on either side of the cache on purpose.
func TestHotSetFitsCacheAndScanStreamDoesNot(t *testing.T) {
	if fullSizes.hot*2 > server.DefaultCacheEntries {
		t.Errorf("hot set of %d does not fit comfortably in a cache of %d", fullSizes.hot, server.DefaultCacheEntries)
	}
	g, err := newGenerator(42, smokeSizes)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := uint64(0); i < 4*server.DefaultCacheEntries; i++ {
		seen[string(g.scanRequest(i))] = true
	}
	if len(seen) != 4*server.DefaultCacheEntries {
		t.Errorf("scan stream repeated itself: %d distinct of %d", len(seen), 4*server.DefaultCacheEntries)
	}
	for _, b := range g.hotBody {
		if seen[string(b)] {
			t.Error("a hot request also occurs in the scan stream")
		}
	}
	// Zipf(1.1): every rank is in range and rank 0 is clearly the favourite.
	counts := make([]int, smokeSizes.hot)
	const draws = 20000
	for i := uint64(0); i < draws; i++ {
		counts[g.hotIndex(i)]++
	}
	if counts[0] < 3*counts[3] || counts[0] < draws/10 {
		t.Errorf("rank 0 drawn %d times, rank 3 %d times of %d: not Zipf(1.1)", counts[0], counts[3], draws)
	}
}

// ingest_mixed's reader must miss the cache often enough for the misses to
// hold the gated search_p95_ms: a fresh query is one no earlier op sent.
func TestReaderStreamMissesOftenEnoughForP95(t *testing.T) {
	g, err := newGenerator(42, smokeSizes)
	if err != nil {
		t.Fatal(err)
	}
	pairs := g.idQueries()
	const draws = 20000
	fresh, seen := 0, map[string]bool{}
	for i := uint64(0); i < draws; i++ {
		q, pair := g.readerQuery(pairs, i)
		if pair >= 0 {
			if !reflect.DeepEqual(q, pairs[pair]) {
				t.Fatalf("op %d: pair %d is not the query returned", i, pair)
			}
			continue
		}
		fresh++
		if body := string(q.body()); seen[body] {
			t.Errorf("op %d repeats an earlier fresh query", i)
		} else {
			seen[body] = true
		}
	}
	if share := float64(fresh) / draws; share < 0.10 || math.Abs(share-freshShare) > 0.02 {
		t.Errorf("fresh share %g, want %g and at least 0.10", share, freshShare)
	}
}

// The reference checks are spread over the run by time, not by op index:
// one per interval however many ops an interval holds.
func TestCheckDueOncePerInterval(t *testing.T) {
	var fast, slow role
	checks := 0
	for el := 0; el < 1000; el++ { // 100 ops per interval
		if fast.checkDue(time.Duration(el), 100) {
			checks++
			if el%100 != 0 {
				t.Errorf("fast stream: checked the op at %d, not the first of its interval", el)
			}
		}
	}
	if checks != 10 {
		t.Errorf("fast stream: %d checks over 10 intervals, want 10", checks)
	}
	checks = 0
	for el := 0; el < 1000; el += 250 { // an op every 2.5 intervals
		if slow.checkDue(time.Duration(el), 100) {
			checks++
		}
	}
	if checks != 4 {
		t.Errorf("slow stream: %d of 4 ops checked, want all", checks)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60}, // overlaps span 2 by 10
		{ID: 4, Parent: 2, Start: 15, End: 25},
		{ID: 5, Parent: 1, Start: 90, End: 120}, // runs past its parent
	}
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 10, 3: 30, 4: 10, 5: 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestBruteForceOrdersByDistanceThenID(t *testing.T) {
	rows := []refRow{
		{ID: 5, Vec: []float64{1, 0}}, {ID: 2, Vec: []float64{0, 1}}, // equidistant under unit weights
		{ID: 9, Vec: []float64{0, 0}}, {ID: 1, Vec: []float64{3, 3}},
	}
	got := bruteForce(rows, []float64{0, 0}, []float64{1, 1}, 3, 0, 10)
	if ids := []int64{got[0].ID, got[1].ID, got[2].ID}; !reflect.DeepEqual(ids, []int64{9, 2, 5}) {
		t.Errorf("order = %v, want [9 2 5]", ids)
	}
	if got[1].Distance != 1 || got[1].Similarity != 0.9 {
		t.Errorf("row = %+v, want distance 1 similarity 0.9", got[1])
	}
	got = bruteForce(rows, []float64{0, 0}, []float64{4, 1}, 10, 9, 10)
	if ids := []int64{got[0].ID, got[1].ID, got[2].ID}; len(got) != 3 || !reflect.DeepEqual(ids, []int64{2, 5, 1}) {
		t.Errorf("weighted order without id 9 = %v, want [2 5 1]", ids)
	}
	if d := dmaxOf(rows); d != math.Sqrt(18) {
		t.Errorf("dmaxOf = %g, want sqrt(18)", d)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	lower := metricSpec{Name: "search_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "search_qps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name string
		m    metricSpec
		b    []float64
		want verdict
	}{
		{"same", lower, steady, verdictOK},
		{"5% slower", lower, []float64{105, 106, 104, 105, 107}, verdictOK},
		{"20% slower", lower, []float64{120, 121, 119, 120, 122}, verdictRegressed},
		{"20% faster", lower, []float64{80, 81, 79, 80, 82}, verdictOK},
		{"20% less throughput", higher, []float64{80, 81, 79, 80, 82}, verdictRegressed},
		{"20% more throughput", higher, []float64{120, 121, 119, 120, 122}, verdictOK},
		{"too noisy to tell", lower, []float64{80, 130, 100, 70, 140}, verdictUnresolved},
	} {
		if got, _ := judge(c.m, steady, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFilesFlagsRegressionAndFailure(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, qps float64, failed int) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 3; i++ {
			rec := runRecord{Workload: "search_hot", Result: &result{Correct: failed == 0, Attempted: 10, Failed: failed,
				Metrics: map[string]metricValue{"search_qps": {Value: qps + float64(i), Unit: "1/s"}}}}
			if err := appendRun(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.jsonl", 1000, 0)
	var out bytes.Buffer
	if regressed, err := compareFiles(&out, base, write("same.jsonl", 990, 0)); err != nil || regressed {
		t.Errorf("1%% slower: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	if regressed, err := compareFiles(&out, base, write("slow.jsonl", 700, 0)); err != nil || !regressed ||
		!strings.Contains(out.String(), "regressed") {
		t.Errorf("30%% slower: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if regressed, _ := compareFiles(&out, base, write("wrong.jsonl", 1000, 1)); !regressed {
		t.Error("a run with failed ops did not count as a regression")
	}
	longer := filepath.Join(dir, "longer.jsonl")
	if err := appendRun(longer, runRecord{Workload: "search_hot", Seconds: 25, Result: &result{Correct: true}}); err != nil {
		t.Fatal(err)
	}
	if _, err := compareFiles(&out, base, longer); err == nil {
		t.Error("run sets with different window lengths were compared")
	}
}

// BENCHMARK.json restates spec.go for the acceptance driver.
func TestSpecMatchesManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&manifest); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(manifest.Workloads, workloads) {
		t.Errorf("workloads differ:\n manifest %v\n spec     %v", manifest.Workloads, workloads)
	}
	if !reflect.DeepEqual(manifest.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n manifest %v\n spec     %v", manifest.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(manifest.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n manifest %v\n spec     %v", manifest.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(manifest.Paths, []string{"bench"}) || manifest.RunSeconds != 10 {
		t.Errorf("paths %v run_seconds %d, want [bench] 10", manifest.Paths, manifest.RunSeconds)
	}
	hasSetup := false
	for _, m := range endToEnd {
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// TestSmoke drives all five workloads and the traced run at toy sizes, so
// an API change that breaks the harness fails a test, not a benchmark run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	cfg := runConfig{seed: 42, seconds: 1, sz: smokeSizes, tmpRoot: t.TempDir()}
	for _, w := range workloads {
		cfg.workload = w.Name
		res, err := runUntraced(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Attempted == 0 {
			t.Errorf("%s: attempted=%d failed=%d notes=%v", w.Name, res.Attempted, res.Failed, res.Notes)
		}
		for _, m := range endToEnd {
			if v, ok := res.Metrics[m.Name]; !ok || !(v.Value > 0) || v.Unit != m.Unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", w.Name, m.Name, v, m.Unit)
			}
		}
		switch w.Name {
		case "search_hot":
			if got := res.Info["qcache_hit_share"]; got < 0.99 {
				t.Errorf("search_hot: cache hit share %g, want >= 0.99", got)
			}
		case "ingest_mixed":
			if got := res.Info["qcache_hit_share"]; got <= 0.5 || got >= 0.94 {
				t.Errorf("ingest_mixed: cache hit share %g, want the misses to hold p95 and not p50", got)
			}
		case "search_scan", "cluster_scan", "qbe_paper":
			if got := res.Info["qcache_hit_share"]; got != 0 {
				t.Errorf("%s: cache hit share %g, want 0", w.Name, got)
			}
		}
	}
	cfg.workload = "search_scan"
	tracePath := filepath.Join(cfg.tmpRoot, "trace.json")
	res, err := runTraced(cfg, tracePath)
	if err != nil {
		t.Fatalf("traced: %v", err)
	}
	if !res.Correct {
		t.Errorf("traced: attempted=%d failed=%d notes=%v", res.Attempted, res.Failed, res.Notes)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("traced: %d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	if fi, err := os.Stat(tracePath); err != nil || fi.Size() == 0 {
		t.Errorf("traced: no trace written: %v", err)
	}
}
