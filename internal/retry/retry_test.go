package retry

import (
	"net/http"
	"strings"
	"testing"
	"time"
)

func respWithRetryAfter(v string) http.Header {
	h := http.Header{}
	if v != "" {
		h.Set("Retry-After", v)
	}
	return h
}

// After must accept both RFC 9110 forms: delta-seconds and HTTP-date
// (some servers and intermediaries only send the date form).
func TestRetryAfterParsesBothForms(t *testing.T) {
	if _, ok := After(respWithRetryAfter("")); ok {
		t.Error("absent header parsed as present")
	}
	if d, ok := After(respWithRetryAfter("3")); !ok || d != 3*time.Second {
		t.Errorf("delta-seconds: (%v, %v), want (3s, true)", d, ok)
	}
	if d, ok := After(respWithRetryAfter("0")); !ok || d != 0 {
		t.Errorf("zero seconds: (%v, %v), want (0, true)", d, ok)
	}
	// Negative delta-seconds clamps to "retry now", matching the past
	// HTTP-date case — both mean the wait is already over.
	if d, ok := After(respWithRetryAfter("-5")); !ok || d != 0 {
		t.Errorf("negative delta-seconds: (%v, %v), want (0, true)", d, ok)
	}
	if _, ok := After(respWithRetryAfter("soon")); ok {
		t.Error("garbage parsed as valid")
	}

	// A future HTTP-date waits roughly until that date.
	future := time.Now().Add(5 * time.Second).UTC().Format(http.TimeFormat)
	d, ok := After(respWithRetryAfter(future))
	if !ok {
		t.Fatalf("HTTP-date %q not accepted", future)
	}
	if d <= 2*time.Second || d > 5*time.Second {
		t.Errorf("HTTP-date wait = %v, want ~5s", d)
	}

	// RFC 850 and asctime obsolete fallbacks go through http.ParseTime too.
	rfc850 := time.Now().Add(10 * time.Second).UTC().Format("Monday, 02-Jan-06 15:04:05 GMT")
	if _, ok := After(respWithRetryAfter(rfc850)); !ok {
		t.Errorf("RFC 850 date %q not accepted", rfc850)
	}

	// A date already in the past means "retry now" — zero wait, not a
	// parse failure (which would strand the client on its default backoff).
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	if d, ok := After(respWithRetryAfter(past)); !ok || d != 0 {
		t.Errorf("past HTTP-date: (%v, %v), want (0, true)", d, ok)
	}
}

// Backoff stays inside [d, 1.5·d] with d = min(base<<(n−1), limit).
func TestBackoffBounds(t *testing.T) {
	base, limit := 10*time.Millisecond, 70*time.Millisecond
	for n := 1; n <= 6; n++ {
		d := min(base<<(n-1), limit)
		for i := 0; i < 200; i++ {
			if got := Backoff(n, base, limit); got < d || got > d+d/2 {
				t.Fatalf("Backoff(%d) = %v, want within [%v, %v]", n, got, d, d+d/2)
			}
		}
	}
}

// Wait prefers the peer's hint over the backoff curve — a zero hint
// ("retry now") included.
func TestWaitPrefersHint(t *testing.T) {
	base, limit := time.Second, 4*time.Second
	if d, hinted := Wait(1, base, limit, respWithRetryAfter("3")); !hinted || d != 3*time.Second {
		t.Errorf("hint 3: (%v, %v), want (3s, true)", d, hinted)
	}
	if d, hinted := Wait(3, base, limit, respWithRetryAfter("0")); !hinted || d != 0 {
		t.Errorf("hint 0: (%v, %v), want (0, true)", d, hinted)
	}
	if d, hinted := Wait(2, base, limit, respWithRetryAfter("")); hinted || d < 2*base || d > 3*base {
		t.Errorf("no hint: (%v, %v), want backoff in [2s, 3s], false", d, hinted)
	}
	if d, hinted := Wait(1, base, limit, nil); hinted || d < base {
		t.Errorf("nil header: (%v, %v), want backoff, false", d, hinted)
	}
}

// SetAfter rounds up to whole seconds and clamps to [1, 30].
func TestSetAfterClamps(t *testing.T) {
	for _, c := range []struct {
		d    time.Duration
		want string
	}{
		{0, "1"},
		{-time.Second, "1"},
		{200 * time.Millisecond, "1"},
		{1500 * time.Millisecond, "2"},
		{7 * time.Second, "7"},
		{time.Hour, "30"},
	} {
		h := http.Header{}
		SetAfter(h, c.d)
		if got := h.Get("Retry-After"); got != c.want {
			t.Errorf("SetAfter(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

// Message prefers the {"error": ...} field, falls back to the raw body,
// and truncates a long raw body to 200 bytes.
func TestMessage(t *testing.T) {
	if got := Message([]byte(`{"error":"bad feature"}`)); got != "bad feature" {
		t.Errorf("JSON body: %q", got)
	}
	if got := Message([]byte("upstream timed out\n")); got != "upstream timed out\n" {
		t.Errorf("raw body: %q", got)
	}
	if got := Message([]byte(`{"status":"ok"}`)); got != `{"status":"ok"}` {
		t.Errorf("JSON without error field: %q", got)
	}
	long := strings.Repeat("x", 300)
	if got := Message([]byte(long)); got != long[:200]+"..." {
		t.Errorf("long body: %d bytes, want 200 + \"...\"", len(got))
	}
}
