package scatter

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// breakerPolicy is testPolicy with a tight breaker so open/half-open
// transitions happen within a test's patience.
func breakerPolicy() Policy {
	p := testPolicy()
	p.BreakerAfter = 3
	p.BreakerCooldown = 50 * time.Millisecond
	return p
}

// Enough consecutive failures open the breaker; once open, calls fail
// immediately with *BreakerOpenError and no request reaches the wire —
// a dead shard stops consuming the retry/timeout budget.
func TestBreakerOpensAndSkipsDeadShard(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()
	sc := newShardClient(0, []string{ts.URL}, breakerPolicy(), nil, nil)

	// One Call = 3 attempts (1 + 2 retries), each a markFail: the third
	// failure trips the breaker.
	if err := sc.Call(context.Background(), http.MethodGet, "/x", nil, nil); err == nil {
		t.Fatal("no error from an all-5xx shard")
	}
	if got := sc.BreakerState(); got != "open" {
		t.Fatalf("breaker = %q after %d consecutive fails, want open", got, sc.fails.Load())
	}
	wire := calls.Load()

	// While open: immediate BreakerOpenError, zero wire traffic, and a
	// positive cooldown hint.
	start := time.Now()
	err := sc.Call(context.Background(), http.MethodGet, "/x", nil, nil)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	var brk *BreakerOpenError
	if !errors.As(err, &brk) || brk.Shard != "shard-0" || brk.RetryAfter <= 0 {
		t.Fatalf("err = %#v, want BreakerOpenError with shard name and positive RetryAfter", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Millisecond {
		t.Errorf("open-breaker rejection took %v, want immediate", elapsed)
	}
	if calls.Load() != wire {
		t.Errorf("open breaker let %d requests through", calls.Load()-wire)
	}
	if h := sc.Health(); h.Breaker != "open" || h.BreakerOpens != 1 {
		t.Errorf("health = breaker %q opens %d, want open/1", h.Breaker, h.BreakerOpens)
	}
}

// After the cooldown one trial call goes through half-open; success
// closes the breaker, and subsequent calls flow normally.
func TestBreakerHalfOpenTrialCloses(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(map[string]int{"ok": 1})
	}))
	defer ts.Close()
	sc := newShardClient(0, []string{ts.URL}, breakerPolicy(), nil, nil)
	sc.Call(context.Background(), http.MethodGet, "/x", nil, nil)
	if got := sc.BreakerState(); got != "open" {
		t.Fatalf("breaker = %q, want open", got)
	}

	failing.Store(false)
	time.Sleep(60 * time.Millisecond) // past the cooldown
	var out map[string]int
	if err := sc.Call(context.Background(), http.MethodGet, "/x", nil, &out); err != nil {
		t.Fatalf("trial call after cooldown: %v", err)
	}
	if got := sc.BreakerState(); got != "closed" {
		t.Errorf("breaker = %q after successful trial, want closed", got)
	}
	if err := sc.Call(context.Background(), http.MethodGet, "/x", nil, &out); err != nil {
		t.Errorf("call after breaker closed: %v", err)
	}
}

// A failed half-open trial reopens the breaker for another full
// cooldown: exactly one request reaches the wire, and the retry that
// follows it inside the same Call is already rejected again.
func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()
	sc := newShardClient(0, []string{ts.URL}, breakerPolicy(), nil, nil)
	sc.Call(context.Background(), http.MethodGet, "/x", nil, nil)
	time.Sleep(60 * time.Millisecond)
	wire := calls.Load()
	if err := sc.Call(context.Background(), http.MethodGet, "/x", nil, nil); err == nil {
		t.Fatal("no error from an all-5xx shard")
	}
	if n := calls.Load() - wire; n != 1 {
		t.Errorf("half-open admitted %d wire requests, want exactly 1 trial", n)
	}
	if got := sc.BreakerState(); got != "open" {
		t.Errorf("breaker = %q after failed trial, want open again", got)
	}
	if opens := sc.brOpens.Load(); opens < 2 {
		t.Errorf("breaker opened %d times, want >= 2 (initial + reopen)", opens)
	}
}

// Probe bypasses the breaker (readiness probing is how an idle
// coordinator notices recovery) and a successful probe closes it early,
// without waiting out the cooldown.
func TestProbeBypassesAndClosesBreaker(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer ts.Close()
	p := breakerPolicy()
	p.BreakerCooldown = time.Hour // recovery must come from the probe, not time
	sc := newShardClient(0, []string{ts.URL}, p, nil, nil)
	sc.Call(context.Background(), http.MethodGet, "/x", nil, nil)
	if got := sc.BreakerState(); got != "open" {
		t.Fatalf("breaker = %q, want open", got)
	}
	failing.Store(false)
	if !sc.Probe(context.Background()) {
		t.Fatal("probe failed against a healthy shard")
	}
	if got := sc.BreakerState(); got != "closed" {
		t.Errorf("breaker = %q after successful probe, want closed", got)
	}
	if err := sc.Call(context.Background(), http.MethodGet, "/x", nil, nil); err != nil {
		t.Errorf("call after probe-closed breaker: %v", err)
	}
}

// A negative BreakerAfter disables the breaker entirely: the state
// reports "disabled" and a long failure streak never rejects a call
// without trying the wire.
func TestBreakerDisabled(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()
	p := breakerPolicy()
	p.BreakerAfter = -1
	sc := newShardClient(0, []string{ts.URL}, p, nil, nil)
	for i := 0; i < 3; i++ {
		if err := sc.Call(context.Background(), http.MethodGet, "/x", nil, nil); errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("disabled breaker rejected call %d", i)
		}
	}
	if got := sc.BreakerState(); got != "disabled" {
		t.Errorf("breaker state = %q, want disabled", got)
	}
	if n := calls.Load(); n != 9 {
		t.Errorf("wire saw %d attempts, want 9 (3 calls x 3 attempts, none skipped)", n)
	}
}

// Regression for the hedging channel: the loser of a hedged race (and
// every request canceled by the attempt deadline) must be able to
// deliver its reply and exit — an unbuffered channel would strand those
// goroutines forever. Run a burst of hedged calls against a straggler
// and check the goroutine count returns to baseline.
func TestAttemptHedgedDoesNotLeakGoroutines(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release: // straggler: answers only when told
		case <-r.Context().Done():
			return
		}
		json.NewEncoder(w).Encode(map[string]int{"ok": 1})
	}))
	defer ts.Close()
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]int{"ok": 1})
	}))
	defer fast.Close()

	p := testPolicy()
	p.HedgeAfter = 5 * time.Millisecond
	sc := newShardClient(0, []string{ts.URL, fast.URL}, p, nil, nil)

	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		// Rotation starts each attempt on the straggler; the hedge to the
		// fast replica wins and the straggler's goroutine must still drain.
		var out map[string]int
		if err := sc.Call(context.Background(), http.MethodGet, "/x", nil, &out); err != nil {
			t.Fatal(err)
		}
	}
	close(release) // let the parked handlers finish server-side

	// The winning replica's keep-alive connection legitimately parks three
	// goroutines (the transport's read and write loops, the server's conn
	// handler). Closing idle connections retires them, so whatever stays
	// above the baseline is a hedged loser that never drained.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		sc.httpc.CloseIdleConnections()
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: before burst %d, after drain %d — hedged losers leaked",
		before, runtime.NumGoroutine())
}
