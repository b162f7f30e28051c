package scatter

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"threedess/internal/retry"
)

// Policy tunes how the coordinator talks to one shard. The zero value
// takes every default below, so `scatter.Policy{}` is a production-ready
// configuration.
type Policy struct {
	// Timeout caps one attempt against one replica. The effective
	// per-attempt deadline is the smaller of Timeout and what remains of
	// the request context minus MergeMargin, so a shard can never consume
	// the whole request budget and starve the merge.
	Timeout time.Duration
	// Retries is how many additional attempts follow a failed first one
	// (connection error, timeout, 429, or 5xx). Attempts rotate across the
	// shard's replica endpoints. Negative disables retries.
	Retries int
	// BackoffBase/BackoffCap shape the exponential backoff between
	// attempts when the shard sent no Retry-After hint; up to 50% jitter
	// is added so a burst of queries doesn't retry in lockstep.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// HedgeAfter is the straggler budget: when an attempt has neither
	// succeeded nor failed after this long, a duplicate request is sent to
	// the shard's next replica and the first response wins. Hedging only
	// fires for slow requests — a fast failure goes through the ordinary
	// retry path instead. Negative disables hedging; zero takes the
	// default.
	HedgeAfter time.Duration
	// MergeMargin is reserved from the request deadline for the
	// coordinator's own merge work; per-shard deadlines never extend into
	// it.
	MergeMargin time.Duration
	// BreakerAfter is the consecutive-failure count that opens the shard's
	// circuit breaker: while open, calls fail immediately with
	// *BreakerOpenError instead of consuming the retry/timeout budget.
	// Zero takes the default; negative disables the breaker.
	BreakerAfter int
	// BreakerCooldown is how long an open breaker rejects before admitting
	// one half-open trial request. Zero takes the default.
	BreakerCooldown time.Duration
}

// Defaults for Policy fields left zero.
const (
	DefaultTimeout     = 2 * time.Second
	DefaultRetries     = 2
	DefaultBackoffBase = 25 * time.Millisecond
	DefaultBackoffCap  = 500 * time.Millisecond
	DefaultHedgeAfter  = 250 * time.Millisecond
	DefaultMergeMargin = 50 * time.Millisecond
)

func (p Policy) withDefaults() Policy {
	if p.Timeout == 0 {
		p.Timeout = DefaultTimeout
	}
	if p.Retries == 0 {
		p.Retries = DefaultRetries
	} else if p.Retries < 0 {
		p.Retries = 0
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = DefaultBackoffBase
	}
	if p.BackoffCap <= 0 {
		p.BackoffCap = DefaultBackoffCap
	}
	if p.HedgeAfter == 0 {
		p.HedgeAfter = DefaultHedgeAfter
	}
	if p.MergeMargin <= 0 {
		p.MergeMargin = DefaultMergeMargin
	}
	if p.BreakerAfter == 0 {
		p.BreakerAfter = DefaultBreakerAfter
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = DefaultBreakerCooldown
	}
	return p
}

// ShardError is a non-2xx HTTP answer from a shard, preserved with its
// status so the coordinator can distinguish a query problem (see
// QueryFault: every shard would refuse it the same way — propagate) from
// a shard problem (429 or 5xx: retry, then degrade).
type ShardError struct {
	Shard  string
	Status int
	Msg    string
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("scatter: %s answered HTTP %d: %s", e.Shard, e.Status, e.Msg)
}

// HTTPStatus extracts the shard-reported status from an error chain (0
// when the error is not a ShardError — a transport failure or timeout).
func HTTPStatus(err error) int {
	var se *ShardError
	if errors.As(err, &se) {
		return se.Status
	}
	return 0
}

// QueryFault reports whether err is a shard refusing the request itself
// (a 4xx other than 429: every shard would answer the same way), so the
// query fails instead of degrading. A shard still shedding (429) after
// its retries is dropped from the merge like a dead one.
func QueryFault(err error) bool {
	status := HTTPStatus(err)
	return status >= 400 && !retry.Transient(status)
}

// ShardHealth is one shard's liveness view, as tracked by its client.
type ShardHealth struct {
	Name      string   `json:"name"`
	Endpoints []string `json:"endpoints"`
	// Healthy means the last contact succeeded (no consecutive failures
	// since).
	Healthy bool `json:"healthy"`
	// LastSeen is the wall-clock time of the last successful response
	// (RFC3339, empty when the shard has never answered).
	LastSeen string `json:"last_seen,omitempty"`
	// SinceSeenMS is how long ago that was, in milliseconds (-1 when
	// never).
	SinceSeenMS int64 `json:"since_seen_ms"`
	// ConsecutiveFails counts attempts failed since the last success.
	ConsecutiveFails int64 `json:"consecutive_fails"`
	// Requests and Hedges count attempts sent (hedges included) and
	// hedged duplicates specifically.
	Requests int64 `json:"requests"`
	Hedges   int64 `json:"hedges"`
	// Breaker is the circuit breaker state: "closed", "open", "half-open",
	// or "disabled". BreakerOpens counts transitions into the open state;
	// BreakerRetryMS is the time until the next half-open trial when open.
	Breaker        string `json:"breaker"`
	BreakerOpens   int64  `json:"breaker_opens"`
	BreakerRetryMS int64  `json:"breaker_retry_ms,omitempty"`
}

// EpochHook lets the topology owner (the Coordinator) stamp its ring
// epoch on every shard call and self-heal when a shard answers 409 with
// a different RingState: adopt the shard's newer state, or push its own
// to a stale shard, then retry transparently.
type EpochHook interface {
	// Epoch is the ring epoch to stamp on outgoing requests.
	Epoch() int64
	// HealEpoch reconciles a shard's 409 RingState with the caller's view
	// and reports whether a retry is worthwhile.
	HealEpoch(ctx context.Context, sc *ShardClient, st RingState) bool
}

// maxEpochHeals bounds how many epoch reconciliations one logical call
// will attempt before surfacing the EpochError — two sides flapping
// between states must not spin a request forever.
const maxEpochHeals = 2

// ShardClient talks to one shard (and its replicas) under the policy's
// robustness machinery. It is safe for concurrent use.
type ShardClient struct {
	name      string
	index     int
	endpoints []string
	policy    Policy
	httpc     *http.Client
	hook      EpochHook // nil outside a coordinator

	mu     sync.Mutex
	cursor int // replica rotation

	lastSeenNano atomic.Int64
	fails        atomic.Int64
	requests     atomic.Int64
	hedges       atomic.Int64

	// Circuit breaker state (see breaker.go).
	brState atomic.Int32 // breakerState
	brUntil atomic.Int64 // unixnano: when the open state admits a trial
	brOpens atomic.Int64
}

// newShardClient builds the client for shard i. transport may be nil
// (http.DefaultTransport-ish pooling) and exists so chaos tests can inject
// a replica.FaultRT between coordinator and shard.
func newShardClient(i int, endpoints []string, policy Policy, transport http.RoundTripper, hook EpochHook) *ShardClient {
	if transport == nil {
		transport = &http.Transport{
			DialContext: (&net.Dialer{
				Timeout:   policy.Timeout,
				KeepAlive: 30 * time.Second,
			}).DialContext,
			ResponseHeaderTimeout: policy.Timeout,
			IdleConnTimeout:       90 * time.Second,
			MaxIdleConnsPerHost:   16,
		}
	}
	return &ShardClient{
		name:      ShardName(i),
		index:     i,
		endpoints: append([]string(nil), endpoints...),
		policy:    policy,
		hook:      hook,
		// No client-level timeout: per-attempt contexts bound every
		// request, and a fixed client timeout would fight the
		// context-derived deadlines.
		httpc: &http.Client{Transport: transport},
	}
}

// Name returns the shard's canonical name ("shard-0").
func (sc *ShardClient) Name() string { return sc.name }

// Endpoints returns the shard's replica URLs.
func (sc *ShardClient) Endpoints() []string { return append([]string(nil), sc.endpoints...) }

// Call performs one logical request against the shard under the full
// policy: per-attempt deadlines derived from ctx, bounded retries rotating
// across replicas, and hedged duplicates for stragglers. A query fault is
// returned as a *ShardError without retrying; connection failures,
// timeouts, 429 and 5xx are retried (after the shard's Retry-After hint,
// else backoff with jitter) until the budget runs out.
func (sc *ShardClient) Call(ctx context.Context, method, path string, body, out any) error {
	return sc.CallIdem(ctx, method, path, "", body, out)
}

// CallIdem is Call with an Idempotency-Key header. Every mutating request
// a coordinator routes MUST carry one: the retry and hedging machinery
// deliberately resends requests, and only the shard-side idempotency
// machinery makes that safe for writes.
func (sc *ShardClient) CallIdem(ctx context.Context, method, path, idemKey string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		payload, err = json.Marshal(body)
		if err != nil {
			return err
		}
	}
	attempts := 1 + sc.policy.Retries
	var lastErr error
	heals := 0
	shed := map[string]bool{} // replicas that answered 429/5xx this call
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		// An open breaker rejects without attempting — the whole point is
		// that a dead shard costs nothing, so no retry budget is spent and
		// the loop exits immediately rather than backing off.
		if ok, retryIn := sc.allowAttempt(); !ok {
			return &BreakerOpenError{Shard: sc.name, RetryAfter: retryIn}
		}
		rep := sc.attemptHedged(ctx, method, path, idemKey, payload)
		switch {
		case rep.err != nil:
			// Transport-level failure or attempt timeout.
			sc.markFail()
			lastErr = rep.err
		case retry.Transient(rep.status):
			// Overload shed or server fault: worth another attempt. Only a
			// 5xx counts against shard health — a 429 is the admission gate
			// doing its job on a live shard.
			if rep.status >= 500 {
				sc.markFail()
			} else {
				sc.markSeen()
			}
			shed[rep.endpoint] = true
			lastErr = &ShardError{Shard: sc.name, Status: rep.status, Msg: retry.Message(rep.data)}
		case rep.status >= 400:
			// The shard is alive and rejected the request. A 409 carrying a
			// RingState is the epoch gate — reconcile topologies and retry
			// without spending the retry budget; any other 4xx is the
			// caller's problem and retrying cannot help.
			sc.markSeen()
			if rep.status == http.StatusConflict && sc.hook != nil {
				if st, ok := DecodeRingState(rep.data); ok {
					if heals < maxEpochHeals && sc.hook.HealEpoch(ctx, sc, st) {
						heals++
						a--
						continue
					}
					return &EpochError{Shard: sc.index, State: st}
				}
			}
			return &ShardError{Shard: sc.name, Status: rep.status, Msg: retry.Message(rep.data)}
		default:
			sc.markSeen()
			if out == nil {
				return nil
			}
			if err := json.Unmarshal(rep.data, out); err != nil {
				return fmt.Errorf("scatter: decoding %s response from %s: %w", path, sc.name, err)
			}
			return nil
		}
		if a < attempts-1 {
			// A Retry-After hint describes one replica, not the shard:
			// while a sibling has not shed this call, the next attempt
			// rotates to it after the ordinary backoff instead.
			hdr := rep.header
			if len(shed) < len(sc.endpoints) {
				hdr = nil
			}
			wait, hinted := retry.Wait(a+1, sc.policy.BackoffBase, sc.policy.BackoffCap, hdr)
			// A shard whose hint outlasts our budget will still be
			// shedding when we could come back: resending into it helps
			// nobody, so give up now and let the caller degrade. Without
			// a deadline (migration calls) the hint is capped at Timeout.
			if dl, ok := ctx.Deadline(); !ok {
				wait = min(wait, sc.policy.Timeout)
			} else if hinted && time.Now().Add(wait).After(dl.Add(-sc.policy.MergeMargin)) {
				return lastErr
			}
			if err := retry.Sleep(ctx, wait); err != nil {
				return err
			}
		}
	}
	return fmt.Errorf("scatter: %s unavailable after %d attempts: %w", sc.name, attempts, lastErr)
}

// reply is one replica endpoint's answer: status, headers and (bounded)
// body, or the transport failure or timeout that prevented one.
type reply struct {
	endpoint string
	status   int
	header   http.Header
	data     []byte
	err      error
}

// attemptHedged runs one attempt: a request to the next replica, plus — if
// it is still in flight after HedgeAfter — a duplicate to the replica
// after that, first answer wins. The reply carries an error only for
// transport failures/timeouts; any HTTP answer comes back as one.
func (sc *ShardClient) attemptHedged(ctx context.Context, method, path, idemKey string, payload []byte) reply {
	budget := sc.policy.Timeout
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl) - sc.policy.MergeMargin
		if remaining <= 0 {
			return reply{err: fmt.Errorf("scatter: no budget left for %s: %w", sc.name, context.DeadlineExceeded)}
		}
		if remaining < budget {
			budget = remaining
		}
	}
	actx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()

	ch := make(chan reply, 2) // buffered: a canceled loser must not leak its goroutine
	send := func(endpoint string) {
		rep := sc.once(actx, method, endpoint+path, idemKey, payload)
		rep.endpoint = endpoint
		ch <- rep
	}
	go send(sc.nextEndpoint())
	inflight := 1

	var hedgeC <-chan time.Time
	if sc.policy.HedgeAfter > 0 {
		t := time.NewTimer(sc.policy.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	for {
		select {
		case rep := <-ch:
			inflight--
			if (rep.err == nil && !retry.Transient(rep.status)) || inflight == 0 {
				// A good answer wins; otherwise every launched request has
				// answered (badly). A fast failure before the hedge timer
				// goes back to the retry loop — hedging is for stragglers,
				// not for errors.
				return rep
			}
		case <-hedgeC:
			hedgeC = nil
			if inflight > 0 {
				sc.hedges.Add(1)
				go send(sc.nextEndpoint())
				inflight++
			}
		case <-actx.Done():
			// The attempt deadline cancels the in-flight requests; their
			// replies land in the buffered channel and are discarded.
			return reply{err: fmt.Errorf("scatter: %s attempt exceeded %s budget: %w", sc.name, budget, actx.Err())}
		}
	}
}

// once sends a single HTTP request and reads the whole (bounded) body.
func (sc *ShardClient) once(ctx context.Context, method, url, idemKey string, payload []byte) reply {
	sc.requests.Add(1)
	req, err := retry.NewRequest(ctx, method, url, idemKey, payload)
	if err != nil {
		return reply{err: err}
	}
	if sc.hook != nil {
		req.Header.Set(RingEpochHeader, formatEpoch(sc.hook.Epoch()))
	}
	resp, err := sc.httpc.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	// Shard answers are JSON result sets; 64 MiB is far beyond any of
	// them and keeps a corrupted peer from ballooning coordinator memory.
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return reply{err: err}
	}
	return reply{status: resp.StatusCode, header: resp.Header, data: data}
}

// Probe makes one cheap liveness attempt (no retries, no hedging, 500ms
// cap) against the shard's replicas in rotation order and records the
// outcome, so readiness endpoints reflect shards the coordinator has not
// queried recently.
func (sc *ShardClient) Probe(ctx context.Context) bool {
	actx, cancel := context.WithTimeout(ctx, 500*time.Millisecond)
	defer cancel()
	for range sc.endpoints {
		rep := sc.once(actx, http.MethodGet, sc.nextEndpoint()+"/healthz", "", nil)
		if rep.err == nil && rep.status == http.StatusOK {
			sc.markSeen()
			return true
		}
	}
	sc.markFail()
	return false
}

// Health snapshots the shard's liveness counters.
func (sc *ShardClient) Health() ShardHealth {
	h := ShardHealth{
		Name:             sc.name,
		Endpoints:        sc.Endpoints(),
		ConsecutiveFails: sc.fails.Load(),
		Requests:         sc.requests.Load(),
		Hedges:           sc.hedges.Load(),
		SinceSeenMS:      -1,
	}
	if nano := sc.lastSeenNano.Load(); nano != 0 {
		seen := time.Unix(0, nano)
		h.LastSeen = seen.UTC().Format(time.RFC3339Nano)
		h.SinceSeenMS = time.Since(seen).Milliseconds()
	}
	h.Breaker = sc.BreakerState()
	h.BreakerOpens = sc.brOpens.Load()
	if breakerState(sc.brState.Load()) == breakerOpen {
		if rem := sc.brUntil.Load() - time.Now().UnixNano(); rem > 0 {
			h.BreakerRetryMS = time.Duration(rem).Milliseconds()
		}
	}
	h.Healthy = h.ConsecutiveFails == 0 && h.LastSeen != ""
	return h
}

func (sc *ShardClient) markSeen() {
	sc.lastSeenNano.Store(time.Now().UnixNano())
	sc.fails.Store(0)
	sc.breakerOnSuccess()
}

func (sc *ShardClient) markFail() {
	sc.breakerOnFailure(sc.fails.Add(1))
}

// nextEndpoint rotates through the shard's replicas so retries and hedges
// land on a different node than the attempt they follow.
func (sc *ShardClient) nextEndpoint() string {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	ep := sc.endpoints[sc.cursor%len(sc.endpoints)]
	sc.cursor++
	return ep
}

// DecodeRingState extracts the "ring" field a shard's epoch-gate 409
// (and its ring-push rejection) carries. A 409 without one is an
// ordinary conflict (an id collision on insert) and must pass through
// untouched.
func DecodeRingState(data []byte) (RingState, bool) {
	var body struct {
		Ring *RingState `json:"ring"`
	}
	if json.Unmarshal(data, &body) == nil && body.Ring != nil {
		return *body.Ring, true
	}
	return RingState{}, false
}

// pushState posts a RingState to the shard's ring endpoint directly —
// one attempt, no heal recursion. Returns the state the shard holds
// afterwards and whether the push was accepted.
func (sc *ShardClient) pushState(ctx context.Context, st RingState) (RingState, bool) {
	payload, err := json.Marshal(st)
	if err != nil {
		return RingState{}, false
	}
	actx, cancel := context.WithTimeout(ctx, sc.policy.Timeout)
	defer cancel()
	rep := sc.once(actx, http.MethodPost, sc.nextEndpoint()+"/api/cluster/ring", "", payload)
	if rep.err != nil {
		return RingState{}, false
	}
	if rep.status == http.StatusOK {
		sc.markSeen()
		var got RingState
		if json.Unmarshal(rep.data, &got) != nil {
			got = st
		}
		return got, true
	}
	if got, ok := DecodeRingState(rep.data); ok {
		return got, false
	}
	return RingState{}, false
}
