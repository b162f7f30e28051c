// Package server implements the SERVER/INTERFACE tiers of the paper's
// three-tier architecture as an HTTP/JSON API: query-by-example (upload a
// mesh), query-by-id (pick a database shape as the initial query),
// multi-step search, relevance feedback, cluster-based browsing, and the
// 3D view generation endpoint that returns a triangulated model — the
// payload the paper's server passed to its Java 3D interface.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"threedess/internal/backup"
	"threedess/internal/core"
	"threedess/internal/features"
	"threedess/internal/geom"
	"threedess/internal/replica"
	"threedess/internal/scatter"
	"threedess/internal/scrub"
	"threedess/internal/shapedb"
)

// Server exposes a 3DESS engine over HTTP.
type Server struct {
	engine *core.Engine
	mux    *http.ServeMux
	cfg    Config
	// gate is the admission semaphore bounding in-flight requests (nil =
	// unbounded); see overload.go.
	gate chan struct{}
	// notReady inverts /readyz (zero value = ready, so embedded servers
	// and tests need no setup call).
	notReady atomic.Bool
	// maint is the optional self-healing maintainer behind
	// /api/admin/maintenance (nil until SetMaintenance; see admin.go).
	maint atomic.Pointer[scrub.Maintainer]
	// repl is the optional replication node (nil = standalone server);
	// see replication.go.
	repl    atomic.Pointer[replica.Node]
	replCfg ReplicationConfig
	// cluster is the optional scatter-gather cluster role (nil =
	// standalone); set via SetShard or SetCoordinator before serving
	// traffic. See cluster.go.
	cluster *clusterRole
	// idemMu/idemInFlight serialize concurrent mutating requests that share
	// an Idempotency-Key, so exactly one performs the insert and the rest
	// replay its stored result instead of double-inserting.
	idemMu       sync.Mutex
	idemInFlight map[string]chan struct{}
	// rebalMu guards the live-rebalance driver below (see rebalance.go):
	// at most one migration runs at a time; the Migrator outlives its run
	// so /api/admin/rebalance can report the last outcome.
	rebalMu     sync.Mutex
	migrator    *scatter.Migrator
	rebalActive bool
	rebalCancel context.CancelFunc
	// backupActive (also under rebalMu) serializes server-side backups
	// and excludes them from running concurrently with a rebalance; see
	// backup.go.
	backupActive bool
	// qcache is the version-tagged query-result cache (nil = disabled);
	// see qcache.go. cacheGen is the coordinator-side write generation
	// folded into dataVersion (routed writes bypass the local db).
	qcache   *qcache
	cacheGen atomic.Int64
	// press is the decaying latency signal feeding brownout tier
	// selection and Retry-After hints; see brownout.go.
	press pressure
}

// Defaults for Config fields left zero.
const (
	DefaultRequestTimeout = 30 * time.Second
	DefaultMaxUploadBytes = 64 << 20 // engineering meshes are big; 64 MiB is generous
)

// Config bounds each request the server accepts. Zero values take the
// defaults above; negative values disable the corresponding limit.
type Config struct {
	// RequestTimeout caps how long one request may hold engine resources.
	// It is enforced through the request context, so a sharded scan or
	// batch extraction stops at its next cancellation check and the
	// handler returns 504 rather than running unbounded.
	RequestTimeout time.Duration
	// MaxUploadBytes caps the request body (mesh uploads are the only
	// large ones). Exceeding it yields 413 instead of an OOM-sized
	// decode.
	MaxUploadBytes int64
	// MaxInFlight caps concurrently admitted API requests; excess
	// requests are shed with 429 + Retry-After before doing any work
	// (health endpoints are exempt). Zero takes DefaultMaxInFlight,
	// negative disables the gate.
	MaxInFlight int
	// MeshLimits bound every uploaded mesh the server parses: declared
	// vertex/triangle counts, face degree, and token length. The zero
	// value takes the geom defaults; see geom.ReadLimits.
	MeshLimits geom.ReadLimits
	// BrownoutCoarseAt / BrownoutCacheOnlyAt are the in-flight fractions
	// (of MaxInFlight) at which searches step down to coarse-only and
	// cache-only serving; see brownout.go. Zero takes the defaults;
	// a negative BrownoutCoarseAt disables tiering entirely (the gate
	// stays binary, as before).
	BrownoutCoarseAt    float64
	BrownoutCacheOnlyAt float64
	// SlowLatency is the decayed request-latency EWMA above which the
	// tier is bumped one step even at low depth. Zero takes the default;
	// negative disables the latency signal.
	SlowLatency time.Duration
	// CacheEntries bounds the query-result cache (entries, not bytes).
	// Zero takes DefaultCacheEntries; negative disables the cache.
	CacheEntries int
	// RebalancePath is where a coordinator persists live-rebalance
	// progress (the rebalance.state journal; see rebalance.go). Empty
	// means migrations run without crash-resume.
	RebalancePath string
}

func (c Config) withDefaults() Config {
	if c.RequestTimeout == 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.MaxUploadBytes == 0 {
		c.MaxUploadBytes = DefaultMaxUploadBytes
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = DefaultMaxInFlight
	}
	if c.BrownoutCoarseAt == 0 {
		c.BrownoutCoarseAt = DefaultCoarseAt
	}
	if c.BrownoutCacheOnlyAt == 0 {
		c.BrownoutCacheOnlyAt = DefaultCacheOnlyAt
	}
	if c.SlowLatency == 0 {
		c.SlowLatency = DefaultSlowLatency
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = DefaultCacheEntries
	}
	return c
}

// New builds a server over the engine with default limits.
func New(engine *core.Engine) *Server { return NewWithConfig(engine, Config{}) }

// NewWithConfig builds a server with explicit request limits.
func NewWithConfig(engine *core.Engine, cfg Config) *Server {
	s := &Server{engine: engine, mux: http.NewServeMux(), cfg: cfg.withDefaults(),
		idemInFlight: make(map[string]chan struct{})}
	if s.cfg.MaxInFlight > 0 {
		s.gate = make(chan struct{}, s.cfg.MaxInFlight)
	}
	if s.cfg.CacheEntries > 0 {
		s.qcache = newQCache(s.cfg.CacheEntries)
	}
	s.mux.HandleFunc("/api/shapes", s.handleShapes)
	s.mux.HandleFunc("/api/shapes/batch", s.handleShapesBatch)
	s.mux.HandleFunc("/api/shapes/", s.handleShapeByID)
	s.mux.HandleFunc("/api/search", s.handleSearch)
	s.mux.HandleFunc("/api/search/multistep", s.handleMultiStep)
	s.mux.HandleFunc("/api/feedback", s.handleFeedback)
	s.mux.HandleFunc("/api/browse", s.handleBrowse)
	s.mux.HandleFunc("/api/stats", s.handleStats)
	s.mux.HandleFunc("/api/cluster/bounds", s.handleClusterBounds)
	s.mux.HandleFunc(RingPath, s.handleClusterRing)
	s.mux.HandleFunc("/api/cluster/moved", s.handleClusterMoved)
	s.mux.HandleFunc("/api/cluster/export", s.handleClusterExport)
	s.mux.HandleFunc("/api/cluster/import", s.handleClusterImport)
	s.mux.HandleFunc("/api/cluster/crc", s.handleClusterCRC)
	s.mux.HandleFunc("/api/cluster/dropmoved", s.handleClusterDropMoved)
	s.mux.HandleFunc("/api/admin/rebalance", s.handleAdminRebalance)
	s.mux.HandleFunc(backup.StatePath, s.handleBackup)
	s.mux.HandleFunc(backup.ChunkPath, s.handleBackupChunk)
	s.mux.HandleFunc("/api/admin/maintenance", s.handleMaintenance)
	s.mux.HandleFunc("/api/admin/replication", s.handleAdminReplication)
	s.mux.HandleFunc(replica.StatePath, s.handleReplState)
	s.mux.HandleFunc(replica.StreamPath, s.handleReplStream)
	s.mux.HandleFunc(replica.FencePath, s.handleReplFence)
	s.mux.HandleFunc("/", s.handleUI)
	return s
}

// parseMesh parses an uploaded OFF mesh under the server's parser limits,
// so a hostile header can't commit the server to an unbounded allocation.
func (s *Server) parseMesh(off string) (*geom.Mesh, error) {
	return geom.ReadOFFLimits(strings.NewReader(off), s.cfg.MeshLimits)
}

// --- wire types ---

// ShapeInfo describes one stored shape. Degraded lists feature kinds that
// were unavailable when the shape was ingested (see features.Degradation);
// the shape is searchable through every other descriptor.
type ShapeInfo struct {
	ID       int64    `json:"id"`
	Name     string   `json:"name"`
	Group    int      `json:"group"`
	Faces    int      `json:"faces"`
	Degraded []string `json:"degraded,omitempty"`
}

func infoOf(rec *shapedb.Record) ShapeInfo {
	return ShapeInfo{
		ID: rec.ID, Name: rec.Name, Group: rec.Group,
		Faces: len(rec.Mesh.Faces), Degraded: rec.Degraded,
	}
}

// ViewModel is the triangulated 3D view of a shape (the "3D view
// generation" output of §2.2): positions as a flat xyz array and triangle
// indices.
type ViewModel struct {
	ID        int64     `json:"id"`
	Name      string    `json:"name"`
	Positions []float64 `json:"positions"`
	Triangles []int     `json:"triangles"`
}

// SearchRequest is the query-by-example / query-by-id request body.
type SearchRequest struct {
	// Exactly one of QueryID (query by browsing/picking), MeshOFF (query
	// by example: an OFF file as a string), or QueryVector (a resolved
	// feature-space point — what a scatter-gather coordinator sends its
	// shards) must be set.
	QueryID     int64     `json:"query_id,omitempty"`
	MeshOFF     string    `json:"mesh_off,omitempty"`
	QueryVector []float64 `json:"query_vector,omitempty"`

	Feature   string    `json:"feature"`
	Threshold *float64  `json:"threshold,omitempty"` // threshold search when set
	K         int       `json:"k,omitempty"`         // top-k search otherwise (default 10)
	Weights   []float64 `json:"weights,omitempty"`
	// ScanMode says what a weighted search may be answered with: "" /
	// "auto" (the exact answer, which a browned-out server may replace
	// with the coarse one, marked X-Degraded), "exact" (the exact answer,
	// opting out of the coarse tier), or "coarse" (the approximate
	// filter-stage answer, always marked). "two-stage" and its spellings
	// are accepted as "auto". Unweighted searches ignore it.
	ScanMode string `json:"scan_mode,omitempty"`
	// DMax overrides the Equation-4.4 similarity normalizer (nil = derive
	// from this node's corpus). A coordinator passes the cluster-global
	// value so per-shard similarities agree with a single-node scan.
	DMax *float64 `json:"dmax,omitempty"`
}

// SearchResult is one result row.
type SearchResult struct {
	ID         int64   `json:"id"`
	Name       string  `json:"name"`
	Group      int     `json:"group"`
	Distance   float64 `json:"distance"`
	Similarity float64 `json:"similarity"`
}

// BatchShape is one item of a bulk upload. ID requests an explicit record
// id (0 = assign sequentially); cluster-routed inserts carry centrally
// allocated ids so every shard shares one global id space.
type BatchShape struct {
	Name    string `json:"name"`
	Group   int    `json:"group"`
	MeshOFF string `json:"mesh_off"`
	ID      int64  `json:"id,omitempty"`
}

// BatchInsertRequest bulk-uploads shapes; feature extraction fans out on
// the server's worker pool and IDs are assigned in input order.
type BatchInsertRequest struct {
	Shapes []BatchShape `json:"shapes"`
}

// BatchInsertResponse returns the assigned ids, aligned with the request.
// Degraded (also aligned, present only when any shape degraded) lists the
// feature kinds skipped per shape.
type BatchInsertResponse struct {
	IDs      []int64    `json:"ids"`
	Degraded [][]string `json:"degraded,omitempty"`
}

// MultiStepRequest runs the §4.2 strategy.
type MultiStepRequest struct {
	QueryID       int64      `json:"query_id,omitempty"`
	MeshOFF       string     `json:"mesh_off,omitempty"`
	Steps         []StepSpec `json:"steps"`
	CandidateSize int        `json:"candidate_size,omitempty"`
	K             int        `json:"k,omitempty"`
}

// StepSpec is one multi-step stage.
type StepSpec struct {
	Feature string    `json:"feature"`
	Weights []float64 `json:"weights,omitempty"`
	Keep    int       `json:"keep,omitempty"`
}

// FeedbackRequest reconstructs a query vector from relevance judgments.
type FeedbackRequest struct {
	QueryID    int64   `json:"query_id"`
	Feature    string  `json:"feature"`
	Relevant   []int64 `json:"relevant"`
	Irrelevant []int64 `json:"irrelevant"`
	K          int     `json:"k,omitempty"`
}

// BrowseNodeJSON mirrors core.BrowseNode.
type BrowseNodeJSON struct {
	IDs      []int64          `json:"ids"`
	Children []BrowseNodeJSON `json:"children,omitempty"`
}

// StatsResponse reports database statistics plus the operator-facing
// execution view: this node's cluster role, the highest id ever assigned
// (the seed for a coordinator's id allocator), and — on a coordinator —
// per-shard health.
type StatsResponse struct {
	Shapes   int                   `json:"shapes"`
	Groups   map[string]int        `json:"group_sizes"`
	Features []string              `json:"features"`
	Role     string                `json:"role,omitempty"`
	MaxID    int64                 `json:"max_id"`
	Shards   []scatter.ShardHealth `json:"shards,omitempty"`
	// BreakerOpens is the fleet-wide total of circuit-breaker trips across
	// all shard clients (coordinator only). Ring is the node's current
	// versioned topology view; Rebalance reports a live or last-finished
	// migration (coordinator only).
	BreakerOpens int64                    `json:"breaker_opens,omitempty"`
	Ring         *scatter.RingState       `json:"ring,omitempty"`
	Rebalance    *scatter.MigrationStatus `json:"rebalance,omitempty"`
	// Brownout observability: the serving tier the next search would get,
	// in-flight gate occupancy, the decayed latency signal, and
	// query-result cache counters.
	Tier          string           `json:"tier,omitempty"`
	GateInFlight  int              `json:"gate_in_flight"`
	GateCapacity  int              `json:"gate_capacity,omitempty"`
	LatencyEWMAMS int64            `json:"latency_ewma_ms"`
	Cache         map[string]int64 `json:"cache,omitempty"`
	// ReadOnly reports the write fence raised after a failed journal
	// append/sync (typically disk full): reads and searches keep serving
	// while writes are refused with 503 + Retry-After until compaction
	// heals the journal. See DESIGN.md §15.
	ReadOnly       bool   `json:"read_only,omitempty"`
	ReadOnlyReason string `json:"read_only_reason,omitempty"`
}

// --- handlers ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeDecodeErr reports a request-body decode failure: a body over the
// configured limit is 413, anything else is the client's malformed JSON.
func writeDecodeErr(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeErr(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	writeErr(w, http.StatusBadRequest, err)
}

// writeStoreErr maps a failed store mutation. A read-only fence
// (shapedb.ErrReadOnly, raised when a journal append or sync fails —
// typically disk full) is a retryable outage, not a client error: 503
// with a Retry-After hint, matching the sync-ack refusal shape clients
// already handle. An id collision stays 409 so the coordinator's
// allocate-and-retry loop keeps working; everything else falls through
// to writeEngineErr with the handler's fallback status.
func (s *Server) writeStoreErr(w http.ResponseWriter, err error, fallback int) {
	switch {
	case errors.Is(err, shapedb.ErrReadOnly):
		s.setRetryAfter(w)
		writeErr(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, shapedb.ErrIDExists):
		writeErr(w, http.StatusConflict, err)
	default:
		writeEngineErr(w, err, fallback)
	}
}

// writeEngineErr reports an engine failure. Context errors get their own
// statuses — deadline means the request ran past RequestTimeout (504),
// cancellation means the client went away or the server is draining (503)
// — everything else uses the handler's status.
func writeEngineErr(w http.ResponseWriter, err error, status int) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeErr(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, context.Canceled):
		writeErr(w, http.StatusServiceUnavailable, err)
	default:
		writeErr(w, status, err)
	}
}

func (s *Server) handleShapes(w http.ResponseWriter, r *http.Request) {
	if s.isCoordinator() {
		s.clusterShapes(w, r)
		return
	}
	switch r.Method {
	case http.MethodGet:
		if !s.staleGuard(w, r) {
			return
		}
		recs := s.engine.DB().Snapshot()
		out := make([]ShapeInfo, 0, len(recs))
		for _, rec := range recs {
			out = append(out, infoOf(rec))
		}
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		// Insert a new shape: {"name": ..., "group": ..., "mesh_off": ...}
		// plus an optional explicit "id" on cluster-routed inserts.
		if !s.requireWritable(w) {
			return
		}
		var req struct {
			Name    string `json:"name"`
			Group   int    `json:"group"`
			MeshOFF string `json:"mesh_off"`
			ID      int64  `json:"id"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeDecodeErr(w, err)
			return
		}
		if err := s.checkShardOwnership(req.ID); err != nil {
			writeErr(w, http.StatusUnprocessableEntity, err)
			return
		}
		mesh, err := s.parseMesh(req.MeshOFF)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		key := r.Header.Get(IdempotencyKeyHeader)
		if key != "" {
			release, err := s.lockIdemKey(r.Context(), key)
			if err != nil {
				writeEngineErr(w, err, http.StatusServiceUnavailable)
				return
			}
			defer release()
			if ids, ok := s.engine.DB().IdempotentIDs(key); ok {
				// A replayed ack needs the same durability attestation as
				// the original: the record may have been journaled by an
				// attempt whose sync-ack wait failed (standby down → 503 →
				// this retry), so answering 2xx here without the gate would
				// acknowledge a write that exists only on this node's disk.
				if err := s.waitReplicated(r, s.engine.DB().ReplState()); err != nil {
					s.writeAckErr(w, err)
					return
				}
				writeJSON(w, http.StatusOK, s.idemReplay(ids[0]))
				return
			}
		}
		res, err := s.engine.IngestMeshWith(req.Name, req.Group, mesh, nil, core.IngestOpts{Key: key, ID: req.ID})
		if err != nil {
			// 409 when the explicit id lost a race with another allocation
			// (the coordinator bumps its counter and retries with a fresh
			// id); 503 + Retry-After when the journal fenced read-only.
			s.writeStoreErr(w, err, http.StatusUnprocessableEntity)
			return
		}
		if err := s.waitReplicated(r, s.engine.DB().ReplState()); err != nil {
			s.writeAckErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]any{"id": res.ID, "degraded": res.Degraded})
	default:
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}

// handleShapesBatch bulk-inserts shapes through the engine's parallel
// ingest path (core.Engine.InsertBatch): extraction runs concurrently on
// the worker pool, inserts happen in input order, and the batch is
// atomic up to the first extraction failure (nothing stored).
func (s *Server) handleShapesBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	if s.isCoordinator() {
		s.clusterInsertBatch(w, r)
		return
	}
	if !s.requireWritable(w) {
		return
	}
	var req BatchInsertRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	if len(req.Shapes) == 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	for _, sh := range req.Shapes {
		if err := s.checkShardOwnership(sh.ID); err != nil {
			writeErr(w, http.StatusUnprocessableEntity, err)
			return
		}
	}
	key := r.Header.Get(IdempotencyKeyHeader)
	if key != "" {
		release, err := s.lockIdemKey(r.Context(), key)
		if err != nil {
			writeEngineErr(w, err, http.StatusServiceUnavailable)
			return
		}
		defer release()
		if ids, ok := s.engine.DB().IdempotentIDs(key); ok && len(ids) == len(req.Shapes) {
			// Same gate as the single-insert replay: a batch journaled by a
			// failed-ack attempt must not be acknowledged until the standby
			// attests it.
			if err := s.waitReplicated(r, s.engine.DB().ReplState()); err != nil {
				s.writeAckErr(w, err)
				return
			}
			writeJSON(w, http.StatusOK, s.idemReplayBatch(ids))
			return
		}
	}
	items := make([]core.IngestShape, len(req.Shapes))
	for i, sh := range req.Shapes {
		mesh, err := s.parseMesh(sh.MeshOFF)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("shape %d (%q): %w", i, sh.Name, err))
			return
		}
		items[i] = core.IngestShape{Name: sh.Name, Group: sh.Group, Mesh: mesh, ID: sh.ID}
	}
	res, err := s.engine.IngestBatchKeyed(r.Context(), items, nil, key)
	if err != nil {
		s.writeStoreErr(w, err, http.StatusUnprocessableEntity)
		return
	}
	if err := s.waitReplicated(r, s.engine.DB().ReplState()); err != nil {
		s.writeAckErr(w, err)
		return
	}
	resp := BatchInsertResponse{IDs: make([]int64, len(res))}
	anyDegraded := false
	for i, ir := range res {
		resp.IDs[i] = ir.ID
		if len(ir.Degraded) > 0 {
			anyDegraded = true
		}
	}
	if anyDegraded {
		resp.Degraded = make([][]string, len(res))
		for i, ir := range res {
			resp.Degraded[i] = ir.Degraded
		}
	}
	writeJSON(w, http.StatusCreated, resp)
}

// handleShapeByID serves /api/shapes/{id}, /api/shapes/{id}/view, and
// /api/shapes/{id}/features.
func (s *Server) handleShapeByID(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/api/shapes/")
	wantView, wantFeatures := false, false
	switch {
	case strings.HasSuffix(rest, "/view"):
		wantView = true
		rest = strings.TrimSuffix(rest, "/view")
	case strings.HasSuffix(rest, "/features"):
		wantFeatures = true
		rest = strings.TrimSuffix(rest, "/features")
	}
	id, err := strconv.ParseInt(rest, 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad shape id %q", rest))
		return
	}
	if s.isCoordinator() {
		s.clusterShapeByID(w, r, id)
		return
	}
	rec, ok := s.engine.DB().Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no shape with id %d", id))
		return
	}
	switch r.Method {
	case http.MethodGet:
		if !s.staleGuard(w, r) {
			return
		}
		if wantView {
			// Views are immutable per (id, data version): ETag lets the
			// interface tier re-render a model it already holds for free.
			etag := qetag(fmt.Sprintf("view:%d", id), s.dataVersion())
			w.Header().Set("ETag", etag)
			if match := r.Header.Get("If-None-Match"); match != "" && etagMatches(match, etag) {
				w.WriteHeader(http.StatusNotModified)
				return
			}
			writeJSON(w, http.StatusOK, viewOf(rec))
			return
		}
		if wantFeatures {
			// The stored descriptors, keyed by kind — what a coordinator
			// fetches to resolve a query-by-id into a query vector.
			out := make(map[string][]float64, len(rec.Features))
			for k, v := range rec.Features {
				out[k.String()] = v
			}
			writeJSON(w, http.StatusOK, out)
			return
		}
		writeJSON(w, http.StatusOK, infoOf(rec))
	case http.MethodDelete:
		if wantView || wantFeatures {
			writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("cannot delete a sub-resource"))
			return
		}
		if !s.requireWritable(w) {
			return
		}
		if _, err := s.engine.DB().Delete(id); err != nil {
			s.writeStoreErr(w, err, http.StatusInternalServerError)
			return
		}
		if err := s.waitReplicated(r, s.engine.DB().ReplState()); err != nil {
			s.writeAckErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"deleted": true})
	default:
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}

func viewOf(rec *shapedb.Record) ViewModel {
	v := ViewModel{
		ID:        rec.ID,
		Name:      rec.Name,
		Positions: make([]float64, 0, 3*len(rec.Mesh.Vertices)),
		Triangles: make([]int, 0, 3*len(rec.Mesh.Faces)),
	}
	for _, p := range rec.Mesh.Vertices {
		v.Positions = append(v.Positions, p.X, p.Y, p.Z)
	}
	for _, f := range rec.Mesh.Faces {
		v.Triangles = append(v.Triangles, f[0], f[1], f[2])
	}
	return v
}

// resolveQuery extracts the feature set for a request's query (by id or by
// uploaded OFF mesh). An uploaded mesh passes the full ingest quarantine
// (sanitize, weld/orientation repair, finiteness check); a degraded
// descriptor simply stays absent from the query set, so the search falls
// back to whatever descriptors are available — asking for a degraded one
// reports "query has no X vector" rather than failing the whole upload.
func (s *Server) resolveQuery(queryID int64, meshOFF string) (features.Set, error) {
	switch {
	case queryID != 0:
		return s.engine.QueryFeatures(queryID)
	case meshOFF != "":
		mesh, err := s.parseMesh(meshOFF)
		if err != nil {
			return nil, fmt.Errorf("parsing query mesh: %w", err)
		}
		set, _, _, err := s.engine.ExtractUntrusted(mesh, features.CoreKinds)
		return set, err
	default:
		return nil, fmt.Errorf("either query_id or mesh_off must be provided")
	}
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req SearchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	kind, err := features.ParseKind(req.Feature)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	mode, err := core.ParseScanMode(req.ScanMode)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if s.isCoordinator() {
		s.clusterSearch(w, r, req, kind)
		return
	}
	if !s.staleGuard(w, r) {
		return
	}
	// Cluster-internal fan-out requests (the coordinator's DMax-carrying
	// shard calls) may be answered from cache but never locally degraded:
	// a shard quietly substituting coarse or stale rows would poison the
	// coordinator's bit-identical merge.
	internal := req.DMax != nil
	key := s.searchCacheKey(req)
	version := s.dataVersion()
	tier := s.currentTier()
	if key != "" {
		if ent, ok := s.qcache.get(key, version); ok && ent.version == version {
			writeCachedResult(w, r, ent, true, "hit")
			return
		}
	}
	if tier >= TierCacheOnly && !internal {
		if key != "" {
			if ent, ok := s.qcache.get(key, version); ok {
				writeCachedResult(w, r, ent, false, "hit")
				return
			}
		}
		s.shed(w, "server browned out to cache-only serving and this query has no cached answer")
		return
	}
	var query features.Set
	if len(req.QueryVector) > 0 {
		// A pre-resolved feature-space point (the coordinator's fan-out
		// form; also usable directly by callers that cache vectors).
		if req.QueryID != 0 || req.MeshOFF != "" {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("query_vector excludes query_id and mesh_off"))
			return
		}
		if want := s.engine.DB().Options().Dim(kind); len(req.QueryVector) != want {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("query_vector has dimension %d, feature %s wants %d", len(req.QueryVector), kind, want))
			return
		}
		query = features.Set{kind: features.Vector(req.QueryVector)}
	} else {
		query, err = s.resolveQuery(req.QueryID, req.MeshOFF)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	}
	var dmax float64
	if req.DMax != nil {
		dmax = *req.DMax
	}
	k := req.K
	if k <= 0 {
		k = 10
	}
	if internal {
		tier = TierFull // the coordinator decides degradation, not its shards
	}
	mode, coarse := coarseMode(mode, tier, req.Weights)
	opt := core.Options{Feature: kind, Weights: req.Weights, Mode: mode, DMax: dmax}
	var results []core.Result
	if req.Threshold != nil {
		opt.Threshold = *req.Threshold
		results, err = s.engine.SearchThreshold(r.Context(), query, opt)
	} else {
		opt.K = k
		if req.QueryID != 0 {
			opt.K++ // absorb the query shape, which is always retrieved
		}
		results, err = s.engine.SearchTopK(r.Context(), query, opt)
	}
	if err != nil {
		writeEngineErr(w, err, http.StatusUnprocessableEntity)
		return
	}
	if req.QueryID != 0 {
		results = core.ExcludeID(results, req.QueryID)
	}
	if req.Threshold == nil && len(results) > k {
		results = results[:k]
	}
	wire := toWireResults(results)
	if coarse {
		// Approximate answers are marked and never cached: the cache
		// stores only what an exact scan would return.
		w.Header().Set(DegradedHeader, DegradedCoarse)
		writeJSON(w, http.StatusOK, wire)
		return
	}
	if key != "" {
		if body, merr := json.Marshal(wire); merr == nil {
			ent := s.qcache.put(key, version, append(body, '\n'))
			writeCachedResult(w, r, ent, true, "fill")
			return
		}
	}
	writeJSON(w, http.StatusOK, wire)
}

func (s *Server) handleMultiStep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	if !s.notOnCoordinator(w, "multi-step search") {
		return
	}
	if !s.staleGuard(w, r) {
		return
	}
	var req MultiStepRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	steps := make([]core.Step, 0, len(req.Steps))
	for _, sp := range req.Steps {
		kind, err := features.ParseKind(sp.Feature)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		steps = append(steps, core.Step{Feature: kind, Weights: sp.Weights, Keep: sp.Keep})
	}
	query, err := s.resolveQuery(req.QueryID, req.MeshOFF)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	k := req.K
	if k <= 0 {
		k = 10
	}
	fetch := k
	if req.QueryID != 0 {
		fetch++ // absorb the query shape, which is always retrieved
	}
	results, err := s.engine.SearchMultiStep(r.Context(), query, core.MultiStepOptions{
		Steps:         steps,
		CandidateSize: req.CandidateSize,
		K:             fetch,
	})
	if err != nil {
		writeEngineErr(w, err, http.StatusUnprocessableEntity)
		return
	}
	if req.QueryID != 0 {
		results = core.ExcludeID(results, req.QueryID)
	}
	if len(results) > k {
		results = results[:k]
	}
	writeJSON(w, http.StatusOK, toWireResults(results))
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	if !s.notOnCoordinator(w, "relevance feedback") {
		return
	}
	if !s.staleGuard(w, r) {
		return
	}
	var req FeedbackRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	kind, err := features.ParseKind(req.Feature)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	query, err := s.engine.QueryFeatures(req.QueryID)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	fb := core.Feedback{Relevant: req.Relevant, Irrelevant: req.Irrelevant}
	newQuery, err := s.engine.ReconstructQuery(query, kind, fb, core.DefaultRocchio)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	// Weight reconfiguration when enough relevant examples exist.
	var weights []float64
	if len(req.Relevant) >= 2 {
		weights, err = s.engine.ReconfigureWeights(kind, fb)
		if err != nil {
			writeErr(w, http.StatusUnprocessableEntity, err)
			return
		}
	}
	k := req.K
	if k <= 0 {
		k = 10
	}
	results, err := s.engine.SearchTopK(r.Context(), newQuery, core.Options{Feature: kind, K: k + 1, Weights: weights})
	if err != nil {
		writeEngineErr(w, err, http.StatusUnprocessableEntity)
		return
	}
	results = core.ExcludeID(results, req.QueryID)
	if len(results) > k {
		results = results[:k]
	}
	writeJSON(w, http.StatusOK, toWireResults(results))
}

func (s *Server) handleBrowse(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	if !s.notOnCoordinator(w, "cluster browsing") {
		return
	}
	if !s.staleGuard(w, r) {
		return
	}
	kindName := r.URL.Query().Get("feature")
	if kindName == "" {
		kindName = features.PrincipalMoments.String()
	}
	kind, err := features.ParseKind(kindName)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	root, err := s.engine.BuildBrowseHierarchy(kind, 1)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, toWireBrowse(root))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	if s.isCoordinator() {
		s.clusterStats(w, r)
		return
	}
	db := s.engine.DB()
	snap := db.Snapshot()
	resp := StatsResponse{
		Shapes: len(snap),
		Groups: map[string]int{},
		Role:   s.clusterRoleName(),
		MaxID:  db.MaxID(),
	}
	carried := map[features.Kind]bool{}
	for _, rec := range snap {
		resp.Groups[strconv.Itoa(rec.Group)]++
		for k := range rec.Features {
			carried[k] = true
		}
	}
	for _, k := range features.AllKinds {
		if carried[k] {
			resp.Features = append(resp.Features, k.String())
		}
	}
	if c := s.cluster; c != nil && c.state != nil {
		st := c.state.State()
		resp.Ring = &st
	}
	if err := db.ReadOnlyErr(); err != nil {
		resp.ReadOnly, resp.ReadOnlyReason = true, err.Error()
	}
	s.fillPressureStats(&resp)
	writeJSON(w, http.StatusOK, resp)
}

// fillPressureStats adds the brownout/cache observability fields shared
// by single-node and coordinator stats responses.
func (s *Server) fillPressureStats(resp *StatsResponse) {
	resp.Tier = s.currentTier().String()
	if s.gate != nil {
		resp.GateInFlight = len(s.gate)
		resp.GateCapacity = cap(s.gate)
	}
	resp.LatencyEWMAMS = s.press.latency().Milliseconds()
	if s.qcache != nil {
		resp.Cache = s.qcache.stats()
	}
}

func toWireResults(results []core.Result) []SearchResult {
	out := make([]SearchResult, len(results))
	for i, r := range results {
		out[i] = SearchResult{
			ID: r.ID, Name: r.Name, Group: r.Group,
			Distance: r.Distance, Similarity: r.Similarity,
		}
	}
	return out
}

func toWireBrowse(n *core.BrowseNode) BrowseNodeJSON {
	out := BrowseNodeJSON{IDs: n.IDs}
	for _, c := range n.Children {
		out.Children = append(out.Children, toWireBrowse(c))
	}
	return out
}

// MeshToOFF serializes a mesh to OFF text for the upload APIs.
func MeshToOFF(m *geom.Mesh) (string, error) {
	var buf bytes.Buffer
	if err := geom.WriteOFF(&buf, m); err != nil {
		return "", err
	}
	return buf.String(), nil
}
