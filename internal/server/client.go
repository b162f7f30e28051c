package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	mathrand "math/rand/v2"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"threedess/internal/geom"
	"threedess/internal/replica"
	"threedess/internal/retry"
	"threedess/internal/scatter"
)

// Client is a Go client for the 3DESS HTTP API, used by the CLI tools and
// examples.
type Client struct {
	BaseURL string
	HTTP    *http.Client
	// MaxRetries is how many times an idempotent GET is retried after a
	// connection-level failure or a 5xx response, with capped exponential
	// backoff and jitter. Mutating requests (POST/DELETE) are never
	// retried after those failures — a timed-out insert may have landed,
	// and resending it would duplicate the shape — UNLESS the request
	// carries an Idempotency-Key (InsertShape and InsertShapes generate
	// one automatically), which makes the resend collapse into the
	// original server-side. A 429 shed by the server's admission gate is
	// different: the request never reached a handler, so EVERY method
	// retries it, waiting out the server's Retry-After hint. Likewise a
	// 503 role refusal from a standby happens before any work, so every
	// method follows its X-Replica-Primary pointer and retries. Zero
	// means no retries; NewClient sets 3.
	MaxRetries int
	// Endpoints lists every node of a replicated deployment (primary and
	// standbys, any order). When set, connection failures rotate to the
	// next endpoint and X-Replica-Primary redirects retarget directly, so
	// the client rides out a failover without caller involvement. Empty
	// means single-endpoint mode against BaseURL.
	Endpoints []string
	// ReadEndpoints, when set, splits the client read/write: reads (GETs
	// and the search family) rotate over these endpoints — typically the
	// standbys — while writes keep using Endpoints/BaseURL. Each read
	// carries the Max-Staleness bound; a standby refusing as too stale
	// (503 + X-Replica-Primary) sends just that request to the primary,
	// without sticking future reads there.
	ReadEndpoints []string
	// MaxStaleness, when positive, is the staleness bound stamped on every
	// read sent to a ReadEndpoints node. Zero sends no header (the
	// server's own ceiling applies).
	MaxStaleness time.Duration
	// epMu guards the failover cursor state below.
	epMu sync.Mutex
	// epIdx is the current index into Endpoints.
	epIdx int
	// rdIdx is the current index into ReadEndpoints.
	rdIdx int
	// override is a primary URL learned from an X-Replica-Primary header,
	// tried before the Endpoints rotation until it fails.
	override string
	// sleep is the backoff clock, replaceable in tests.
	sleep func(time.Duration)
}

// Timeouts and retry tuning for NewClient. The overall attempt timeout is
// generous because batch mesh uploads legitimately take a while; the
// connection-establishment timeouts are tight so a dead server fails fast.
const (
	clientTimeout       = 60 * time.Second
	clientDialTimeout   = 5 * time.Second
	clientHeaderTimeout = 30 * time.Second
	retryBase           = 100 * time.Millisecond
	retryCap            = 2 * time.Second
)

// NewFailoverClient builds a client over every node of a replicated
// deployment (primary and standbys, any order). The client learns which
// node is primary from X-Replica-Primary refusals, rotates endpoints on
// connection failure, and stamps mutating requests with idempotency keys,
// so a primary crash mid-request surfaces as latency, not an error or a
// duplicate. Calling it with no endpoints yields a client whose requests
// fail with a clear error rather than panicking.
func NewFailoverClient(endpoints ...string) *Client {
	if len(endpoints) == 0 {
		return NewClient("")
	}
	c := NewClient(endpoints[0])
	c.Endpoints = endpoints
	return c
}

// NewReadSplitClient builds a failover client that additionally routes
// read traffic (GETs and the search family) to the given read replicas,
// each read bounded by maxStaleness (zero defers to the server ceiling).
// Writes — and reads a replica refuses as too stale — go to the write
// endpoints, so callers see one client with replica offload, not two.
func NewReadSplitClient(maxStaleness time.Duration, writeEndpoints, readEndpoints []string) *Client {
	c := NewFailoverClient(writeEndpoints...)
	c.ReadEndpoints = readEndpoints
	c.MaxStaleness = maxStaleness
	return c
}

// NewClient builds a client for the given base URL (e.g.
// "http://localhost:8080"). Unlike http.DefaultClient, every stage of a
// request is bounded: dialing, waiting for response headers, and the
// request as a whole, so a wedged server can never hang a caller forever.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL: baseURL,
		HTTP: &http.Client{
			Timeout: clientTimeout,
			Transport: &http.Transport{
				DialContext: (&net.Dialer{
					Timeout:   clientDialTimeout,
					KeepAlive: 30 * time.Second,
				}).DialContext,
				TLSHandshakeTimeout:   clientDialTimeout,
				ResponseHeaderTimeout: clientHeaderTimeout,
				IdleConnTimeout:       90 * time.Second,
				MaxIdleConnsPerHost:   4,
			},
		},
		MaxRetries: 3,
	}
}

func (c *Client) do(method, path string, body, out any) error {
	return c.doIdem(method, path, "", body, out)
}

// doIdem is do with an optional Idempotency-Key. A keyed request is safe
// to resend after ambiguous failures (the server deduplicates it), so it
// gets the full GET retry/failover treatment.
func (c *Client) doIdem(method, path, idemKey string, body, out any) error {
	return c.doCapture(method, path, idemKey, body, out, nil)
}

// doCapture is doIdem with a hook observing the final (decoded) response,
// for callers that need headers — e.g. a coordinator's X-Partial-Results.
func (c *Client) doCapture(method, path, idemKey string, body, out any, capture func(*http.Response)) error {
	var payload []byte
	if body != nil {
		var err error
		payload, err = json.Marshal(body)
		if err != nil {
			return err
		}
	}
	// A GET never mutates; a keyed mutation deduplicates server-side.
	// Everything else must not be blindly resent after a failure that may
	// have already landed it.
	resendable := method == http.MethodGet || idemKey != ""
	read := isReadRequest(method, path)
	attempts := 1 + c.MaxRetries
	var lastErr error
	// A replica's too-stale refusal redirects only the current request to
	// the primary; the rotation keeps preferring replicas for later reads.
	readOverride := ""
	for attempt := 0; attempt < attempts; attempt++ {
		base := readOverride
		if base == "" {
			base = c.endpoint(read)
		}
		resp, err := c.attempt(method, base+path, idemKey, payload, read)
		if err != nil {
			// Connection-level failure: this endpoint may be dead; rotate
			// to the next one. Resending is only safe for GETs and keyed
			// requests — an unkeyed mutation may have reached the server
			// before the connection died.
			if !resendable || attempt == attempts-1 {
				return err
			}
			lastErr = err
			readOverride = ""
			c.failEndpoint(base)
			c.sleepFor(retry.Backoff(attempt+1, retryBase, retryCap))
			continue
		}
		switch {
		case resp.StatusCode == http.StatusServiceUnavailable &&
			resp.Header.Get(replica.PrimaryHeader) != "" && attempt < attempts-1:
			// Role or staleness refusal from a standby (or fenced
			// ex-primary): the handler did no work, so every method may
			// follow the pointer to the current primary and resend
			// immediately. A split-client read keeps the redirect local to
			// this request — the standby may be caught up again next read.
			if read && len(c.ReadEndpoints) > 0 {
				readOverride = resp.Header.Get(replica.PrimaryHeader)
			} else {
				c.retarget(resp.Header.Get(replica.PrimaryHeader))
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			lastErr = fmt.Errorf("server: HTTP %d (not primary)", resp.StatusCode)
			// Role refusals carry no Retry-After and resend immediately; a
			// refusal that does carry one (e.g. the pointed-at primary is
			// itself fenced read-only) says when retrying becomes useful.
			if wait, hinted := retry.After(resp.Header); hinted {
				c.sleepFor(wait)
			}
			continue
		case resp.StatusCode == http.StatusConflict && resendable && attempt < attempts-1:
			// A 409 carrying a "ring" body is the cluster's epoch gate: the
			// topology moved (a live rebalance crossed a phase boundary) and
			// the node answered with its new RingState. The cluster heals
			// itself within moments — coordinators adopt the newer state on
			// their next exchange — so resending the request is exactly
			// right. A 409 WITHOUT a ring (an id conflict) is terminal.
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if _, ok := scatter.DecodeRingState(data); !ok {
				return responseError(resp.StatusCode, data)
			}
			lastErr = fmt.Errorf("server: ring epoch changed: %s", retry.Message(data))
			c.sleepFor(retry.Backoff(attempt+1, retryBase, retryCap))
			continue
		case retry.Transient(resp.StatusCode) && attempt < attempts-1 &&
			(resendable || resp.StatusCode == http.StatusTooManyRequests):
			// An admission-gate shed (429) never reached a handler, so
			// resending it is side-effect free for every method; a 5xx may
			// have, so only a resendable request goes again. Either way
			// the server's Retry-After hint, when present, sets the wait.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			lastErr = fmt.Errorf("server: HTTP %d", resp.StatusCode)
			wait, hinted := retry.Wait(attempt+1, retryBase, retryCap, resp.Header)
			if resp.StatusCode == http.StatusServiceUnavailable && !hinted {
				// Could be a draining or freshly-demoted node with no
				// pointer to offer; try the next endpoint.
				readOverride = ""
				c.failEndpoint(base)
			}
			// A 503 with Retry-After is a live node shedding work or
			// fenced read-only (disk full): it still serves reads and will
			// take writes again once healed, so keep it in the rotation and
			// come back when it said to.
			c.sleepFor(wait)
			continue
		}
		if capture != nil {
			capture(resp)
		}
		return decodeResponse(resp, out)
	}
	return lastErr
}

// isReadRequest classifies a request for read/write splitting: GETs plus
// the POST-carrying search family, which a standby serves behind its
// staleness gate without mutating anything.
func isReadRequest(method, path string) bool {
	if method == http.MethodGet {
		return true
	}
	return method == http.MethodPost &&
		(path == "/api/search" || path == "/api/search/multistep" || path == "/api/feedback")
}

// endpoint picks the base URL for the next attempt. Reads on a split
// client rotate over ReadEndpoints; everything else takes a learned
// primary override first, then the Endpoints rotation, then BaseURL.
func (c *Client) endpoint(read bool) string {
	c.epMu.Lock()
	defer c.epMu.Unlock()
	if read && len(c.ReadEndpoints) > 0 {
		return c.ReadEndpoints[c.rdIdx%len(c.ReadEndpoints)]
	}
	if c.override != "" {
		return c.override
	}
	if len(c.Endpoints) > 0 {
		return c.Endpoints[c.epIdx%len(c.Endpoints)]
	}
	return c.BaseURL
}

// failEndpoint reacts to a failure of the given base URL: a failed
// override is dropped (back to the rotation), a failed rotation entry —
// in either the write or the read rotation — advances that cursor to the
// next endpoint.
func (c *Client) failEndpoint(base string) {
	c.epMu.Lock()
	defer c.epMu.Unlock()
	if c.override == base {
		c.override = ""
		return
	}
	if len(c.Endpoints) > 1 && c.Endpoints[c.epIdx%len(c.Endpoints)] == base {
		c.epIdx = (c.epIdx + 1) % len(c.Endpoints)
	}
	if len(c.ReadEndpoints) > 1 && c.ReadEndpoints[c.rdIdx%len(c.ReadEndpoints)] == base {
		c.rdIdx = (c.rdIdx + 1) % len(c.ReadEndpoints)
	}
}

// retarget records a primary URL learned from an X-Replica-Primary header.
func (c *Client) retarget(primary string) {
	c.epMu.Lock()
	defer c.epMu.Unlock()
	c.override = primary
}

func (c *Client) sleepFor(d time.Duration) {
	sleep := c.sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	sleep(d)
}

func (c *Client) attempt(method, url, idemKey string, payload []byte, read bool) (*http.Response, error) {
	req, err := retry.NewRequest(context.Background(), method, url, idemKey, payload)
	if err != nil {
		return nil, err
	}
	if read && c.MaxStaleness > 0 {
		req.Header.Set(MaxStalenessHeader, c.MaxStaleness.String())
	}
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	return httpc.Do(req)
}

// newIdemKey generates a fresh idempotency key for one logical mutation
// (all retries of that mutation share it).
func newIdemKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unheard of; fall back to math/rand
		// rather than refusing to build a request.
		return fmt.Sprintf("idem-%x-%x", mathrand.Uint64(), mathrand.Uint64())
	}
	return hex.EncodeToString(b[:])
}

func decodeResponse(resp *http.Response, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		data, _ := io.ReadAll(resp.Body)
		return responseError(resp.StatusCode, data)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// responseError renders an HTTP error answer, preferring the server's
// {"error": ...} message over raw bytes.
func responseError(status int, data []byte) error {
	return fmt.Errorf("server: %s (HTTP %d)", retry.Message(data), status)
}

// ListShapes returns every stored shape's metadata.
func (c *Client) ListShapes() ([]ShapeInfo, error) {
	var out []ShapeInfo
	err := c.do(http.MethodGet, "/api/shapes", nil, &out)
	return out, err
}

// InsertShape uploads a mesh, extracts its features server-side, and
// returns the assigned id. Each call carries a fresh idempotency key, so
// internal retries (connection loss, failover, ack timeout) can never
// store the shape twice.
func (c *Client) InsertShape(name string, group int, mesh *geom.Mesh) (int64, error) {
	off, err := MeshToOFF(mesh)
	if err != nil {
		return 0, err
	}
	var out struct {
		ID int64 `json:"id"`
	}
	err = c.doIdem(http.MethodPost, "/api/shapes", newIdemKey(), map[string]any{
		"name": name, "group": group, "mesh_off": off,
	}, &out)
	return out.ID, err
}

// InsertShapes bulk-uploads meshes in one request; the server extracts
// features on its worker pool and returns the ids in input order. Like
// InsertShape, each call carries a fresh idempotency key covering the
// whole batch.
func (c *Client) InsertShapes(shapes []BatchShape) ([]int64, error) {
	var out BatchInsertResponse
	err := c.doIdem(http.MethodPost, "/api/shapes/batch", newIdemKey(),
		BatchInsertRequest{Shapes: shapes}, &out)
	return out.IDs, err
}

// GetShape fetches one shape's metadata.
func (c *Client) GetShape(id int64) (ShapeInfo, error) {
	var out ShapeInfo
	err := c.do(http.MethodGet, fmt.Sprintf("/api/shapes/%d", id), nil, &out)
	return out, err
}

// DeleteShape removes a shape.
func (c *Client) DeleteShape(id int64) error {
	return c.do(http.MethodDelete, fmt.Sprintf("/api/shapes/%d", id), nil, nil)
}

// GetView fetches the triangulated 3D view of a shape.
func (c *Client) GetView(id int64) (ViewModel, error) {
	var out ViewModel
	err := c.do(http.MethodGet, fmt.Sprintf("/api/shapes/%d/view", id), nil, &out)
	return out, err
}

// Search runs a single-feature search.
func (c *Client) Search(req SearchRequest) ([]SearchResult, error) {
	var out []SearchResult
	err := c.do(http.MethodPost, "/api/search", req, &out)
	return out, err
}

// SearchPartial is Search surfacing cluster degradation: alongside the
// results it returns the shards a coordinator named in X-Partial-Results
// (nil when the answer covers the whole corpus, or when the server is a
// single node). Callers that must not act on partial data check missing.
func (c *Client) SearchPartial(req SearchRequest) (results []SearchResult, missing []string, err error) {
	err = c.doCapture(http.MethodPost, "/api/search", "", req, &results, func(resp *http.Response) {
		if v := resp.Header.Get(scatter.PartialHeader); v != "" {
			missing = strings.Split(v, ",")
		}
	})
	return results, missing, err
}

// MultiStep runs the §4.2 multi-step strategy.
func (c *Client) MultiStep(req MultiStepRequest) ([]SearchResult, error) {
	var out []SearchResult
	err := c.do(http.MethodPost, "/api/search/multistep", req, &out)
	return out, err
}

// Feedback submits relevance judgments and reruns the search.
func (c *Client) Feedback(req FeedbackRequest) ([]SearchResult, error) {
	var out []SearchResult
	err := c.do(http.MethodPost, "/api/feedback", req, &out)
	return out, err
}

// Browse fetches the drill-down hierarchy for a feature.
func (c *Client) Browse(feature string) (BrowseNodeJSON, error) {
	var out BrowseNodeJSON
	path := "/api/browse"
	if feature != "" {
		path += "?feature=" + feature
	}
	err := c.do(http.MethodGet, path, nil, &out)
	return out, err
}

// Stats fetches database statistics.
func (c *Client) Stats() (StatsResponse, error) {
	var out StatsResponse
	err := c.do(http.MethodGet, "/api/stats", nil, &out)
	return out, err
}
