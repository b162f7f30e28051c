package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"threedess/internal/core"
	"threedess/internal/retry"
)

// Brownout serving: the binary admission gate becomes a ladder. As
// pressure rises — in-flight depth climbing toward MaxInFlight, or the
// decaying latency signal crossing SlowLatency — search requests step
// down through cheaper execution tiers instead of jumping straight from
// "full service" to 429:
//
//	TierFull      exact search, results cached
//	TierCoarse    quantized filter stage only, marked `X-Degraded: coarse`
//	TierCacheOnly cached answers only (stale ones marked
//	              `X-Degraded: cache-only`); cache misses shed
//	(shed)        gate full: cached answer if any, else 429 + Retry-After
//
// Degradation is never silent: an answer that is not the exact, current
// one always carries X-Degraded. Cluster-internal fan-out requests (the
// coordinator's DMax-carrying shard calls) never degrade locally — a
// shard quietly answering coarse would poison the coordinator's
// bit-identical merge — they shed instead, and the coordinator's own
// ladder decides what to do.

// Degradation header names and values. X-Staleness/Max-Staleness live in
// readreplica.go; X-Partial-Results is scatter.PartialHeader.
const (
	// DegradedHeader marks a response produced by a cheaper path than the
	// exact current answer: "coarse" or "cache-only".
	DegradedHeader    = "X-Degraded"
	DegradedCoarse    = "coarse"
	DegradedCacheOnly = "cache-only"
	// CacheHeader reports result-cache participation ("hit").
	CacheHeader = "X-Cache"
)

// Tier is the serving level the pressure ladder selects for a request.
type Tier int

const (
	TierFull Tier = iota
	TierCoarse
	TierCacheOnly
)

func (t Tier) String() string {
	switch t {
	case TierCoarse:
		return "coarse"
	case TierCacheOnly:
		return "cache-only"
	default:
		return "full"
	}
}

// coarseMode resolves the scan mode a search runs in at tier: the coarse
// tier swaps ScanAuto for ScanCoarse, while an explicit "exact" is honored
// (the client opted out of approximation). coarse reports whether the
// filter stage will be the answer. Only weighted searches have a coarse
// form — the engine answers unweighted ones exactly whatever the mode
// says — so only then is a response marked `X-Degraded: coarse` and kept
// out of the cache.
func coarseMode(mode core.ScanMode, tier Tier, weights []float64) (_ core.ScanMode, coarse bool) {
	if tier == TierCoarse && mode == core.ScanAuto {
		mode = core.ScanCoarse
	}
	return mode, mode == core.ScanCoarse && len(weights) > 0
}

// Brownout defaults for Config fields left zero.
const (
	DefaultCoarseAt    = 0.50
	DefaultCacheOnlyAt = 0.85
	DefaultSlowLatency = 1500 * time.Millisecond

	// pressureHalfLife decays the latency EWMA between observations, so a
	// burst of slow requests stops biasing the tier once traffic recovers.
	pressureHalfLife = 5 * time.Second
	// ewmaAlpha weights each new latency observation (~ last 8 requests).
	ewmaAlpha = 0.125
)

// pressure tracks the decaying request-latency signal feeding tier
// selection and Retry-After hints. In-flight depth is read straight off
// the admission gate channel.
type pressure struct {
	ewmaNanos atomic.Int64 // EWMA of request latency
	lastNanos atomic.Int64 // unixnano of the last observation
}

// observe folds one completed request's latency into the EWMA.
func (p *pressure) observe(d time.Duration) {
	if d < 0 {
		return
	}
	now := time.Now().UnixNano()
	for {
		old := p.ewmaNanos.Load()
		var next int64
		if old == 0 {
			next = int64(d)
		} else {
			next = old + int64(ewmaAlpha*float64(int64(d)-old))
		}
		if p.ewmaNanos.CompareAndSwap(old, next) {
			p.lastNanos.Store(now)
			return
		}
	}
}

// latency returns the EWMA decayed by the time since the last
// observation: an idle or recovered server drifts back toward zero
// instead of staying browned out on stale history.
func (p *pressure) latency() time.Duration {
	ew := p.ewmaNanos.Load()
	if ew == 0 {
		return 0
	}
	last := p.lastNanos.Load()
	elapsed := time.Now().UnixNano() - last
	if elapsed <= 0 {
		return time.Duration(ew)
	}
	decay := math.Exp2(-float64(elapsed) / float64(pressureHalfLife))
	return time.Duration(float64(ew) * decay)
}

// gateFraction is the admitted in-flight depth as a fraction of capacity
// (0 when the gate is disabled).
func (s *Server) gateFraction() float64 {
	if s.gate == nil {
		return 0
	}
	return float64(len(s.gate)) / float64(cap(s.gate))
}

// currentTier picks the serving tier from in-flight depth, bumped one
// step when the decaying latency signal says admitted requests are
// already slow (depth alone lags: 40% of slots serving 10s requests is
// worse than 90% serving 10ms ones).
func (s *Server) currentTier() Tier {
	if s.gate == nil || s.cfg.BrownoutCoarseAt < 0 {
		return TierFull
	}
	frac := s.gateFraction()
	tier := TierFull
	switch {
	case frac >= s.cfg.BrownoutCacheOnlyAt:
		tier = TierCacheOnly
	case frac >= s.cfg.BrownoutCoarseAt:
		tier = TierCoarse
	}
	if tier < TierCacheOnly && s.cfg.SlowLatency > 0 && s.press.latency() > s.cfg.SlowLatency {
		tier++
	}
	return tier
}

// setRetryAfter stamps a Retry-After hint derived from live pressure on
// a shed/refused response: the expected time for a slot to free (the
// latency EWMA) scaled by how contended the gate is, clamped to [1, 30]
// by retry.SetAfter. This replaces the historical hardcoded "1" — under
// a 10-second-scan pileup, "come back in 1s" just synchronized the
// stampede.
func (s *Server) setRetryAfter(w http.ResponseWriter) {
	lat := s.press.latency()
	retry.SetAfter(w.Header(), time.Duration(float64(lat)*(1+3*s.gateFraction())))
}

// shedSearchFromCache is the ladder's floor, running when the admission
// gate is already full: a search whose answer is cached — fresh or stale
// — is served from memory (no engine work, no gate slot) instead of shed.
// Returns false when the request is not a cacheable search or has no
// cached answer; the caller sheds with 429.
func (s *Server) shedSearchFromCache(w http.ResponseWriter, r *http.Request) bool {
	if s.qcache == nil || r.Method != http.MethodPost || r.URL.Path != "/api/search" || r.Body == nil {
		return false
	}
	limit := s.cfg.MaxUploadBytes
	if limit <= 0 {
		limit = DefaultMaxUploadBytes
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, limit))
	if err != nil {
		return false
	}
	var req SearchRequest
	if json.Unmarshal(body, &req) != nil {
		return false
	}
	if req.DMax != nil {
		// Cluster-internal fan-out: shed so the coordinator degrades
		// knowingly instead of merging a stale shard slice.
		return false
	}
	key := s.searchCacheKey(req)
	if key == "" {
		return false
	}
	ent, ok := s.qcache.get(key, s.dataVersion())
	if !ok {
		return false
	}
	s.addStalenessHeader(w)
	writeCachedResult(w, r, ent, ent.version == s.dataVersion(), "hit")
	return true
}

// shed refuses a request with 429 + the pressure-derived hint. 4xx, not
// 5xx: the request was never attempted, and the client may safely resend
// it after the hint.
func (s *Server) shed(w http.ResponseWriter, why string) {
	s.setRetryAfter(w)
	writeErr(w, http.StatusTooManyRequests, fmt.Errorf("%s", why))
}
