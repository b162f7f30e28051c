package server

import (
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"threedess/internal/features"
	"threedess/internal/scatter"
)

// TestClusterShedShardIsPartial saturates one real shard's admission
// gate: it sheds every coordinator call with 429 + Retry-After, a hint
// longer than the coordinator's request budget. The coordinator must not
// resend into the overload or pass the 429 on; the query answers 200
// from the other shards, with X-Partial-Results naming the shedding one.
func TestClusterShedShardIsPartial(t *testing.T) {
	tc := newTestClusterCfg(t, 3, fastPolicy(), false,
		Config{CacheEntries: -1, RequestTimeout: 500 * time.Millisecond})
	tc.seedSynthetic(t, 36)
	req := SearchRequest{
		QueryVector: []float64{0.3, 0.5, 0.7},
		Feature:     features.PrincipalMoments.String(),
		K:           10,
		Weights:     []float64{1, 2, 1},
	}
	const shed = 1
	release := fillGate(t, tc.shards[shed], cap(tc.shards[shed].gate))
	defer release()

	start := time.Now()
	resp, body := postSearch(t, tc.coordURL, req, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d with one shard shedding, want 200: %s", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 400*time.Millisecond {
		t.Errorf("degraded answer took %v; the hint outlasts the budget, so no resend should wait", elapsed)
	}
	missing := strings.Split(resp.Header.Get(scatter.PartialHeader), ",")
	if want := []string{scatter.ShardName(shed)}; !reflect.DeepEqual(missing, want) {
		t.Fatalf("%s = %v, want %v", scatter.PartialHeader, missing, want)
	}
	res, missing, err := tc.coordC.SearchPartial(req)
	if err != nil {
		t.Fatal(err)
	}
	want := tc.expectedWithout(t, req, map[int]bool{shed: true}, req.K)
	if len(res) != len(want) {
		t.Fatalf("degraded answer has %d rows, want %d (missing %v)", len(res), len(want), missing)
	}
	for i := range want {
		if res[i].ID != want[i].ID || res[i].Distance != want[i].Distance {
			t.Fatalf("degraded row %d = %+v, want %+v", i, res[i], want[i])
		}
	}
}
