// Package retry is the one retry policy of server.Client and
// scatter.ShardClient: which answers are worth resending, how long to wait
// first, and how a resendable request is built. Where a resend goes
// (endpoint rotation, failover) stays with each client.
package retry

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	mathrand "math/rand/v2"
	"net/http"
	"strconv"
	"time"
)

// IdempotencyKeyHeader carries the key that makes resending a mutation
// safe: the server applies a keyed request once.
const IdempotencyKeyHeader = "Idempotency-Key"

// Backoff is the wait before retry number attempt (1-based): exponential
// from base, capped at limit, plus up to 50% jitter so a burst of clients
// hitting a recovering peer doesn't retry in lockstep.
func Backoff(attempt int, base, limit time.Duration) time.Duration {
	d := base << (attempt - 1)
	if d > limit || d <= 0 {
		d = limit
	}
	return d + time.Duration(mathrand.Int64N(int64(d)/2+1))
}

// After parses a Retry-After header: the delta-seconds form the 3DESS
// server emits, or the RFC 9110 HTTP-date form other servers and
// intermediaries send (RFC 1123 and its obsolete fallbacks, via
// http.ParseTime). A date already in the past means "retry now" — a zero
// wait, not a parse failure.
func After(h http.Header) (time.Duration, bool) {
	v := h.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil {
		// Negative delta-seconds clamps to "retry now", matching the past-
		// date case below — treating it as a parse failure would strand the
		// client on its slower default backoff for a well-meant hint.
		return max(time.Duration(secs)*time.Second, 0), true
	}
	when, err := http.ParseTime(v)
	if err != nil {
		return 0, false
	}
	return max(time.Until(when), 0), true
}

// Wait is the pause before retry number attempt: the peer's Retry-After
// hint when the answer carries one (hinted), Backoff otherwise.
func Wait(attempt int, base, limit time.Duration, h http.Header) (d time.Duration, hinted bool) {
	if hint, ok := After(h); ok {
		return hint, true
	}
	return Backoff(attempt, base, limit), false
}

// SetAfter stamps a Retry-After hint of d, rounded up to whole seconds
// and clamped to [1, 30].
func SetAfter(h http.Header, d time.Duration) {
	secs := min(max(int(math.Ceil(d.Seconds())), 1), 30)
	h.Set("Retry-After", strconv.Itoa(secs))
}

// Transient reports whether a status is the peer's fault, so a resend
// may succeed: an admission-gate shed (429) or a 5xx.
func Transient(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// Message extracts the {"error": ...} message from an error body,
// falling back to the raw bytes, truncated to 200.
func Message(data []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	s := string(data)
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}

// Sleep waits d, cut short by ctx, whose error it then returns.
func Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// NewRequest builds one attempt: a JSON payload (nil for none) plus the
// idemKey, when set, that every resend of one mutation shares.
func NewRequest(ctx context.Context, method, url, idemKey string, payload []byte) (*http.Request, error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if idemKey != "" {
		req.Header.Set(IdempotencyKeyHeader, idemKey)
	}
	return req, nil
}
