package scatter

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The coordinator waits out a shedding shard's Retry-After hint instead
// of resending into the overload on its own (much shorter) backoff.
func TestCallHonorsShardRetryAfter(t *testing.T) {
	var mu sync.Mutex
	var arrivals []time.Time
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		arrivals = append(arrivals, time.Now())
		first := len(arrivals) == 1
		mu.Unlock()
		if first {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		json.NewEncoder(w).Encode(map[string]int{"ok": 1})
	}))
	defer ts.Close()
	sc := newShardClient(0, []string{ts.URL}, testPolicy(), nil, nil)
	var out map[string]int
	if err := sc.Call(context.Background(), http.MethodGet, "/x", nil, &out); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(arrivals) != 2 {
		t.Fatalf("shard saw %d requests, want 2", len(arrivals))
	}
	if gap := arrivals[1].Sub(arrivals[0]); gap < 900*time.Millisecond {
		t.Errorf("resent after %v, want the hinted 1s", gap)
	}
}

// A shard whose hint outlasts the request budget is given up on at once
// and degrades the answer like a dead shard: the search returns the
// survivor's rows and names the shedding shard, rather than failing.
func TestSearchDropsShardSheddingPastDeadline(t *testing.T) {
	survivor := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/api/cluster/bounds":
			json.NewEncoder(w).Encode(shardBounds{Count: 1, Lo: []float64{0, 0, 0}, Hi: []float64{1, 1, 1}})
		case "/api/search":
			json.NewEncoder(w).Encode([]Result{{ID: 2, Name: "kept", Distance: 0.5}})
		default:
			http.NotFound(w, r)
		}
	}))
	defer survivor.Close()
	var shedCalls atomic.Int64
	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		shedCalls.Add(1)
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer shedding.Close()

	c, err := New([]ShardSpec{
		{Endpoints: []string{survivor.URL}},
		{Endpoints: []string{shedding.URL}},
	}, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	out, err := c.Search(ctx, Query{Feature: "principal-moments", Vector: []float64{0.5, 0.5, 0.5}, K: 5})
	if err != nil {
		t.Fatalf("search with one shedding shard failed: %v", err)
	}
	if want := []string{ShardName(1)}; !reflect.DeepEqual(out.Missing, want) {
		t.Errorf("missing = %v, want %v", out.Missing, want)
	}
	if len(out.Results) != 1 || out.Results[0].ID != 2 {
		t.Errorf("results = %+v, want the survivor's row", out.Results)
	}
	if n := shedCalls.Load(); n != 1 {
		t.Errorf("shedding shard saw %d calls, want 1 (its hint outlasts the budget)", n)
	}
}

// A Retry-After hint describes one replica, not the shard: while a
// sibling replica has not shed this call, the next attempt rotates to it
// after the ordinary backoff instead of waiting out the hint.
func TestHintedReplicaRotatesToSibling(t *testing.T) {
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/api/cluster/bounds":
			json.NewEncoder(w).Encode(shardBounds{Count: 1, Lo: []float64{0, 0, 0}, Hi: []float64{1, 1, 1}})
		case "/api/search":
			json.NewEncoder(w).Encode([]Result{{ID: 3, Name: "sibling", Distance: 0.5}})
		default:
			http.NotFound(w, r)
		}
	}))
	defer healthy.Close()
	for _, status := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		var hintedCalls atomic.Int64
		hinted := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hintedCalls.Add(1)
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(status)
		}))
		c, err := New([]ShardSpec{{Endpoints: []string{hinted.URL, healthy.URL}}}, Policy{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		start := time.Now()
		out, err := c.Search(ctx, Query{Feature: "principal-moments", Vector: []float64{0.5, 0.5, 0.5}, K: 5})
		elapsed := time.Since(start)
		cancel()
		hinted.Close()
		if err != nil {
			t.Fatalf("HTTP %d: search failed: %v", status, err)
		}
		if len(out.Missing) != 0 || len(out.Results) != 1 || out.Results[0].ID != 3 {
			t.Errorf("HTTP %d: missing = %v, results = %+v, want the sibling's full answer", status, out.Missing, out.Results)
		}
		if hintedCalls.Load() == 0 {
			t.Errorf("HTTP %d: the hinted replica was never tried", status)
		}
		if elapsed > 500*time.Millisecond {
			t.Errorf("HTTP %d: search took %v, want the backoff (not the 1s hint) before the sibling", status, elapsed)
		}
	}
}
