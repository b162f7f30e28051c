package server

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"threedess/internal/core"
)

// Query-result cache: exact search answers keyed on the full request
// semantics (descriptor/query, weights, k, threshold), tagged with the
// data version they were computed at. A hit at the current
// version is byte-identical to re-running the search, so it can serve
// with an ETag and no degradation marking; a stale hit is only served
// under brownout, explicitly marked `X-Degraded: cache-only`. Entries are
// never filled from degraded answers (coarse mode, partial cluster
// results) — the cache stores exact, complete responses only.
//
// Invalidation is version-based: shapedb bumps Version() on every
// mutation (inserts, deletes, quarantine, replica reset — including
// replicated applies on a standby), so a lookup comparing the entry's
// version against the live one can never serve a pre-mutation answer as
// current. A watcher on DB.CommitNotify additionally evicts stale entries
// in the background so a write-heavy corpus does not pin dead bodies in
// memory until the LRU pushes them out.

// DefaultCacheEntries bounds the query-result cache when Config leaves it
// zero. Entries are whole serialized result sets; a thousand of them is a
// few MB for typical top-k answers.
const DefaultCacheEntries = 1024

// qentry is one cached search answer: the exact response body computed at
// a data version, plus the ETag that identifies it.
type qentry struct {
	key     string
	version int64
	etag    string
	body    []byte
}

// qcache is a version-tagged LRU of serialized search responses. Safe for
// concurrent use.
type qcache struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List // front = most recent; values are *qentry
	entries map[string]*list.Element

	hits       atomic.Int64
	staleHits  atomic.Int64
	misses     atomic.Int64
	fills      atomic.Int64
	evictions  atomic.Int64
	invalidate atomic.Int64
}

func newQCache(capacity int) *qcache {
	if capacity <= 0 {
		capacity = DefaultCacheEntries
	}
	return &qcache{
		cap:     capacity,
		lru:     list.New(),
		entries: make(map[string]*list.Element),
	}
}

// lookup returns the cached entry for key without touching the counters
// — for callers (the coordinator) that learn the current version only
// after deciding whether an entry exists, and account via noteHit /
// noteStale / noteMiss themselves.
func (c *qcache) lookup(key string) (*qentry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*qentry), true
}

// noteHit / noteStale / noteMiss record the outcome of a lookup: found
// at the current version, found at an older one, or absent.
func (c *qcache) noteHit()   { c.hits.Add(1) }
func (c *qcache) noteStale() { c.staleHits.Add(1) }
func (c *qcache) noteMiss()  { c.misses.Add(1) }

// get returns the cached entry for key at any version; the caller decides
// whether it is fresh enough to serve. currentVersion is used only for
// hit/stale accounting.
func (c *qcache) get(key string, currentVersion int64) (*qentry, bool) {
	ent, ok := c.lookup(key)
	if !ok {
		c.noteMiss()
		return nil, false
	}
	if ent.version == currentVersion {
		c.noteHit()
	} else {
		c.noteStale()
	}
	return ent, true
}

// put stores body as the answer for key computed at version, evicting the
// least recently used entry past capacity.
func (c *qcache) put(key string, version int64, body []byte) *qentry {
	ent := &qentry{key: key, version: version, etag: qetag(key, version), body: body}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fills.Add(1)
	if el, ok := c.entries[key]; ok {
		el.Value = ent
		c.lru.MoveToFront(el)
		return ent
	}
	c.entries[key] = c.lru.PushFront(ent)
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*qentry).key)
		c.evictions.Add(1)
	}
	return ent
}

// dropStale evicts every entry whose version differs from current — the
// CommitNotify watcher's half of invalidation. (Lookups re-check versions
// themselves; this only reclaims memory early.)
func (c *qcache) dropStale(current int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if ent := el.Value.(*qentry); ent.version != current {
			c.lru.Remove(el)
			delete(c.entries, ent.key)
			c.invalidate.Add(1)
		}
		el = next
	}
}

// len reports the live entry count.
func (c *qcache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// stats snapshots the cache counters for /api/stats.
func (c *qcache) stats() map[string]int64 {
	return map[string]int64{
		"entries":     int64(c.len()),
		"hits":        c.hits.Load(),
		"stale_hits":  c.staleHits.Load(),
		"misses":      c.misses.Load(),
		"fills":       c.fills.Load(),
		"evictions":   c.evictions.Load(),
		"invalidated": c.invalidate.Load(),
	}
}

// qetag derives the entity tag for (key, version). Deterministic, so a
// future hit serves the same tag the fill path sent and If-None-Match
// round-trips work across instances with identical data.
func qetag(key string, version int64) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s@%d", key, version)))
	return `"` + hex.EncodeToString(sum[:12]) + `"`
}

// dataVersion is the version the cache tags entries with: the local
// store's mutation counter plus the coordinator-side write generation
// (coordinators route writes to shards without touching their own empty
// db, so routed writes bump cacheGen instead).
func (s *Server) dataVersion() int64 {
	return s.engine.DB().Version() + s.cacheGen.Load()
}

// bumpCacheGen invalidates coordinator-cached results after a routed
// write. Writes that bypass this coordinator (a second coordinator, or
// direct-to-shard traffic) are invisible to it; see DESIGN.md §13 for the
// deployment contract.
func (s *Server) bumpCacheGen() {
	if s.isCoordinator() {
		s.cacheGen.Add(1)
	}
}

// searchCacheKey canonicalizes a search request into its cache key. Two
// requests with the same key get byte-identical answers at equal data
// versions. Returns "" for requests that must not be cached.
func (s *Server) searchCacheKey(req SearchRequest) string {
	if s.qcache == nil {
		return ""
	}
	mode, err := core.ParseScanMode(req.ScanMode)
	if _, coarse := coarseMode(mode, TierFull, req.Weights); err != nil || coarse {
		// Unknown modes never reach the engine; coarse answers are
		// approximate and must not shadow exact ones.
		return ""
	}
	norm := req
	norm.ScanMode = "" // every spelling of an exact answer is one key
	if norm.K <= 0 && norm.Threshold == nil {
		norm.K = 10 // the handler's default, applied so explicit 10 matches
	}
	blob, err := json.Marshal(norm)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:16])
}

// writeCachedResult writes a stored response body with its cache headers.
// cacheStatus is "hit" (served from cache) or "fill" (just computed).
// Fresh serves carry the ETag and honor If-None-Match; a stale serve is
// only legal under brownout and is marked `X-Degraded: cache-only`.
func writeCachedResult(w http.ResponseWriter, r *http.Request, ent *qentry, fresh bool, cacheStatus string) {
	w.Header().Set(CacheHeader, cacheStatus)
	if fresh {
		w.Header().Set("ETag", ent.etag)
		if match := r.Header.Get("If-None-Match"); match != "" && etagMatches(match, ent.etag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	} else {
		w.Header().Set(DegradedHeader, DegradedCacheOnly)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(ent.body)
}

// etagMatches implements the If-None-Match comparison: "*" matches
// anything, otherwise any listed tag may match (weak validators compare
// equal to their strong form for GET caching purposes).
func etagMatches(header, etag string) bool {
	if header == "*" {
		return true
	}
	for _, part := range strings.Split(header, ",") {
		tag := strings.TrimSpace(part)
		tag = strings.TrimPrefix(tag, "W/")
		if tag == etag {
			return true
		}
	}
	return false
}

// WatchCache runs until ctx ends, evicting version-stale cache entries
// whenever the database commits. cmd/3dess starts it next to the columnar
// store watcher; tests drive dropStale directly.
func (s *Server) WatchCache(ctx context.Context) {
	if s.qcache == nil {
		return
	}
	db := s.engine.DB()
	for {
		ch := db.CommitNotify()
		// Re-check after grabbing the channel so a commit between the
		// last wake and now cannot be missed.
		s.qcache.dropStale(s.dataVersion())
		select {
		case <-ctx.Done():
			return
		case <-ch:
		}
	}
}
