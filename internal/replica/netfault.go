package replica

import (
	"errors"
	"io"
	"net/http"
	"sync"
	"time"

	"threedess/internal/retry"
)

// FaultRT is the network-side sibling of faultfs: an http.RoundTripper
// that wraps a real transport and injects the failure modes a replication
// link sees in production — dropped requests, added latency, a full
// partition, and duplicated deliveries. The chaos suite drives the
// replication transport (and the failover client) through one of these to
// prove the protocol survives each mode; production code never constructs
// one.
//
// All knobs are safe for concurrent use and take effect on the next
// request. Drop and duplicate are armed counters (fail/duplicate the next
// N requests) rather than probabilities, so tests are deterministic.
type FaultRT struct {
	// Inner is the real transport (nil = http.DefaultTransport).
	Inner http.RoundTripper

	mu          sync.Mutex
	partitioned bool
	delay       time.Duration
	dropNext    int
	dupNext     int
	requests    int64
}

// ErrNetFault is the injected connection-level failure for dropped
// requests and partitions; it reaches callers exactly like a refused
// connection (a *url.Error wrapping this).
var ErrNetFault = errors.New("replica: injected network fault")

// NewFaultRT wraps inner (nil = http.DefaultTransport) with an unarmed
// injector: until a knob is set it is a transparent pass-through counter.
func NewFaultRT(inner http.RoundTripper) *FaultRT {
	return &FaultRT{Inner: inner}
}

// SetPartition severs (true) or heals (false) the link: while severed,
// every request fails without reaching the wire.
func (f *FaultRT) SetPartition(p bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.partitioned = p
}

// SetDelay adds fixed latency before every request is sent (0 disables).
func (f *FaultRT) SetDelay(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.delay = d
}

// DropNext arms the injector to fail the next n requests at the
// connection level.
func (f *FaultRT) DropNext(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dropNext = n
}

// DuplicateNext arms the injector to deliver each of the next n requests
// twice: the first response is discarded and the second returned, the
// wire-level duplicate an at-least-once transport produces. Against a
// mutating endpoint this is exactly the double-delivery the idempotency
// keys exist to absorb. Requests with a body are replayed from a buffered
// copy.
func (f *FaultRT) DuplicateNext(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dupNext = n
}

// Requests returns how many requests have been attempted through the
// injector (including dropped ones).
func (f *FaultRT) Requests() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.requests
}

// plan consumes the armed state for one request.
func (f *FaultRT) plan() (drop bool, dup bool, delay time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.requests++
	if f.partitioned {
		return true, false, 0
	}
	if f.dropNext > 0 {
		f.dropNext--
		return true, false, 0
	}
	if f.dupNext > 0 {
		f.dupNext--
		return false, true, f.delay
	}
	return false, false, f.delay
}

// RoundTrip implements http.RoundTripper.
func (f *FaultRT) RoundTrip(req *http.Request) (*http.Response, error) {
	drop, dup, delay := f.plan()
	if drop {
		return nil, ErrNetFault
	}
	if delay > 0 {
		if err := retry.Sleep(req.Context(), delay); err != nil {
			return nil, err
		}
	}
	inner := f.Inner
	if inner == nil {
		inner = http.DefaultTransport
	}
	if !dup {
		return inner.RoundTrip(req)
	}
	// Duplicate delivery: buffer the body, send twice, surface the second
	// response (the one the duplicate-suppression machinery must make
	// harmless).
	var body []byte
	if req.Body != nil {
		var err error
		body, err = io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	first, err := inner.RoundTrip(cloneRequest(req, body))
	if err == nil {
		io.Copy(io.Discard, first.Body)
		first.Body.Close()
	}
	return inner.RoundTrip(cloneRequest(req, body))
}

func cloneRequest(req *http.Request, body []byte) *http.Request {
	c := req.Clone(req.Context())
	if body != nil {
		c.Body = io.NopCloser(newByteReader(body))
		c.ContentLength = int64(len(body))
	}
	return c
}

// newByteReader avoids sharing read state between the two deliveries.
func newByteReader(b []byte) io.Reader {
	cp := make([]byte, len(b))
	copy(cp, b)
	return &byteReader{data: cp}
}

type byteReader struct {
	data []byte
	pos  int
}

func (r *byteReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.pos:])
	r.pos += n
	return n, nil
}
