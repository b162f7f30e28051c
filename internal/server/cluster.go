package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"

	"threedess/internal/core"
	"threedess/internal/features"
	"threedess/internal/retry"
	"threedess/internal/scatter"
	"threedess/internal/workpool"
)

// The cluster surface of the server: the shard role (explicit-id insert
// ownership validation, the bounds endpoint a coordinator merges into the
// global dmax) and the coordinator role (scatter-gather routing of
// searches, inserts, deletes, listings, and stats over the shard fleet,
// with partial-result degradation). Servers that never call SetShard or
// SetCoordinator behave exactly as before.
//
// Trust model: cluster-internal fields (explicit ids, dmax overrides,
// query vectors) travel over the same open HTTP surface as everything
// else, mirroring the replication plane's default. The cluster is meant
// to run on a trusted network segment; shards validate everything they
// are sent (ownership, dimensions, finiteness), so a stray client can get
// wrong-but-bounded behavior, never corruption.

// clusterRole is the server's place in a scatter-gather cluster: a shard
// (versioned ring state + own index) or the coordinator (shard clients).
type clusterRole struct {
	state *scatter.ShardState
	index int
	coord *scatter.Coordinator
}

// SetShard configures this server as shard `index` of a cluster of
// `total` shards and returns the server. Call before serving traffic. The
// shard refuses explicit-id inserts the hash ring assigns elsewhere, so a
// misconfigured loader cannot split ownership.
func (s *Server) SetShard(index, total int) (*Server, error) {
	if index < 0 || index >= total {
		return nil, fmt.Errorf("server: shard index %d outside cluster of %d", index, total)
	}
	state, err := scatter.NewShardState(index, total)
	if err != nil {
		return nil, err
	}
	s.cluster = &clusterRole{state: state, index: index}
	return s, nil
}

// SetShardJoining configures this server as shard `index` of a cluster it
// has not yet joined: its ring state starts at epoch 0, below every live
// epoch, so the first migration-driver push installs the real topology
// and any earlier routed call self-heals via the 409 epoch exchange.
func (s *Server) SetShardJoining(index int) (*Server, error) {
	if index < 0 {
		return nil, fmt.Errorf("server: negative shard index %d", index)
	}
	state, err := scatter.NewJoiningShardState(index)
	if err != nil {
		return nil, err
	}
	s.cluster = &clusterRole{state: state, index: index}
	return s, nil
}

// SetCoordinator configures this server as the cluster's coordinator,
// routing every corpus and search endpoint over the given shard fleet.
// Call before serving traffic. The server's own engine stays empty and is
// used only to extract features from query-by-example uploads.
func (s *Server) SetCoordinator(coord *scatter.Coordinator) *Server {
	s.cluster = &clusterRole{coord: coord}
	return s
}

// isCoordinator reports whether requests should be scatter-gather routed.
func (s *Server) isCoordinator() bool {
	return s.cluster != nil && s.cluster.coord != nil
}

// clusterRoleName names this node's cluster role for operator surfaces
// ("" when not clustered).
func (s *Server) clusterRoleName() string {
	switch c := s.cluster; {
	case c == nil:
		return ""
	case c.coord != nil:
		return "coordinator"
	default:
		return scatter.ShardName(c.index)
	}
}

// checkShardOwnership rejects an explicit-id insert on a shard the WRITE
// ring assigns elsewhere (id 0 = sequential assignment, always allowed; a
// non-clustered server accepts any explicit id). The write ring — not the
// serving one — owns new records, so mid-migration inserts land directly
// on their post-cutover owner.
func (s *Server) checkShardOwnership(id int64) error {
	c := s.cluster
	if id == 0 || c == nil || c.coord != nil {
		return nil
	}
	if owner := c.state.WriteOwner(id); owner != c.index {
		return fmt.Errorf("shape id %d belongs to %s, not %s",
			id, scatter.ShardName(owner), scatter.ShardName(c.index))
	}
	return nil
}

// notOnCoordinator refuses endpoints that need a whole local corpus
// (multi-step, feedback, browsing) with 501 on a coordinator. Returns
// false when the request was refused.
func (s *Server) notOnCoordinator(w http.ResponseWriter, what string) bool {
	if !s.isCoordinator() {
		return true
	}
	writeErr(w, http.StatusNotImplemented,
		fmt.Errorf("%s is not available on a coordinator; send it to a shard", what))
	return false
}

// handleClusterBounds serves GET /api/cluster/bounds?feature=K: the
// bounding box of this node's live rows of the feature, their count, and
// the data version — all three read from one column snapshot, the one a
// search of this node ranks. Coordinators merge these boxes elementwise
// into the global box whose diagonal is the cluster-wide Equation-4.4
// normalizer.
func (s *Server) handleClusterBounds(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	kind, err := features.ParseKind(r.URL.Query().Get("feature"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	st, err := s.engine.ColStore().Store(kind)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	// The data version rides along so coordinators can fold every shard's
	// mutation counter (plus the ring epoch) into one cache tag — any
	// write anywhere in the fleet, through any coordinator, changes it.
	resp := map[string]any{"count": st.Len(), "version": st.Version()}
	if lo, hi, ok := st.Bounds(); ok {
		resp["lo"], resp["hi"] = lo, hi
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeScatterErr maps a scatter routing failure onto a response: a
// shard's own HTTP answer passes through with its status (the query was
// at fault), a cluster-wide outage is 503 with a retry hint, and context
// errors keep their usual 504/503 mapping. The hint comes from the
// breaker's own cooldown when one rejected the call, from live pressure
// otherwise.
func (s *Server) writeScatterErr(w http.ResponseWriter, err error) {
	if status := scatter.HTTPStatus(err); status >= 400 && status < 500 {
		writeErr(w, status, err)
		return
	}
	var brk *scatter.BreakerOpenError
	if errors.As(err, &brk) && brk.RetryAfter > 0 {
		retry.SetAfter(w.Header(), brk.RetryAfter)
	} else {
		s.setRetryAfter(w)
	}
	writeEngineErr(w, err, http.StatusServiceUnavailable)
}

// setPartialHeader marks a degraded answer with the shards whose corpus
// slice is missing.
func setPartialHeader(w http.ResponseWriter, missing []string) {
	if len(missing) > 0 {
		w.Header().Set(scatter.PartialHeader, scatter.JoinMissing(missing))
	}
}

// clusterSearch scatter-gathers POST /api/search: resolve the query down
// to a feature vector (locally for uploads, from the owning shard for
// query-by-id), fan out, merge, and degrade — never fail — when shards
// are down past their retry budget. The coordinator runs the same
// brownout ladder as a single node, but decides degradation itself:
// shards never locally degrade a fan-out call (see brownout.go), so a
// coarse tier here forces coarse mode across the whole fleet and the
// merged answer is marked once, truthfully.
func (s *Server) clusterSearch(w http.ResponseWriter, r *http.Request, req SearchRequest, kind features.Kind) {
	coord := s.cluster.coord
	mode, _ := core.ParseScanMode(req.ScanMode) // validated by handleSearch
	key := s.searchCacheKey(req)
	tier := s.currentTier()
	if tier >= TierCacheOnly {
		// Browned out to cache-only: no fleet round at all — serve whatever
		// answer is stored (marked degraded; freshness is unknowable without
		// asking the shards) or shed.
		if key != "" {
			if ent, ok := s.qcache.lookup(key); ok {
				s.qcache.noteStale()
				writeCachedResult(w, r, ent, false, "hit")
				return
			}
			s.qcache.noteMiss()
		}
		s.shed(w, "coordinator browned out to cache-only serving and this query has no cached answer")
		return
	}
	// Bounds round first: beyond the global dmax it carries every shard's
	// data version, which folds (with the ring epoch) into the cache tag.
	// Tagging entries with fleet state instead of a local write counter
	// means a second coordinator — or direct-to-shard writes — invalidate
	// this coordinator's cache the moment the shards report a new version,
	// and two coordinators compute identical ETags for identical answers.
	b, err := coord.CollectBounds(r.Context(), kind.String())
	if err != nil {
		s.writeScatterErr(w, err)
		return
	}
	var version int64
	cacheable := key != "" && b.Complete()
	if cacheable {
		version = b.VersionTag()
		if ent, ok := s.qcache.lookup(key); ok {
			if ent.version == version {
				s.qcache.noteHit()
				writeCachedResult(w, r, ent, true, "hit")
				return
			}
			s.qcache.noteStale()
		} else {
			s.qcache.noteMiss()
		}
	} else if key != "" {
		// A shard is down: the fleet-wide tag is incomputable and a fresh
		// merge would be partial. A cached COMPLETE answer beats both — it
		// covered the whole corpus when it was computed, and its staleness
		// is bounded by the outage — so the cache rides out a dead shard
		// for queries it has already seen.
		if ent, ok := s.qcache.lookup(key); ok {
			s.qcache.noteHit()
			writeCachedResult(w, r, ent, true, "hit")
			return
		}
		s.qcache.noteMiss()
	}
	vec := req.QueryVector
	if len(vec) == 0 {
		switch {
		case req.QueryID != 0:
			// The owning shard holds the stored descriptors. If it is down
			// the query itself is unresolvable — the one read that cannot
			// degrade.
			var feats map[string][]float64
			path := fmt.Sprintf("/api/shapes/%d/features", req.QueryID)
			if err := s.ownerGet(r.Context(), req.QueryID, path, &feats); err != nil {
				s.writeScatterErr(w, err)
				return
			}
			v, ok := feats[kind.String()]
			if !ok {
				writeErr(w, http.StatusBadRequest,
					fmt.Errorf("shape %d has no %s descriptor", req.QueryID, kind))
				return
			}
			vec = v
		case req.MeshOFF != "":
			// Query by example: extract once here, so shards never
			// re-extract (and cannot disagree).
			mesh, err := s.parseMesh(req.MeshOFF)
			if err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("parsing query mesh: %w", err))
				return
			}
			set, _, _, err := s.engine.ExtractUntrusted(mesh, features.CoreKinds)
			if err != nil {
				writeErr(w, http.StatusBadRequest, err)
				return
			}
			v, ok := set[kind]
			if !ok {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("query has no %s vector", kind))
				return
			}
			vec = v
		default:
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("either query_id, mesh_off, or query_vector must be provided"))
			return
		}
	}
	k := req.K
	if k <= 0 {
		k = 10
	}
	// Coarse tier: the whole fleet runs the filter stage only, and the
	// merged answer carries one X-Degraded marking.
	mode, coarse := coarseMode(mode, tier, req.Weights)
	q := scatter.Query{
		Feature:   kind.String(),
		Vector:    vec,
		Weights:   req.Weights,
		Threshold: req.Threshold,
		K:         k,
		ScanMode:  mode.String(),
		ExcludeID: req.QueryID,
	}
	out, err := coord.SearchBounds(r.Context(), q, b)
	if err != nil {
		s.writeScatterErr(w, err)
		return
	}
	setPartialHeader(w, out.Missing)
	results := make([]SearchResult, len(out.Results))
	for i, res := range out.Results {
		results[i] = SearchResult(res)
	}
	if coarse {
		w.Header().Set(DegradedHeader, DegradedCoarse)
	}
	// Only exact, complete answers are cached (and thus ETagged): a
	// partial merge must never be replayed as the corpus-wide truth, and
	// a coarse one must never shadow the exact answer at the same key.
	// SearchBounds may have re-collected bounds after a topology swap, so
	// the tag is recomputed from the set the answer was actually built on.
	if !coarse && len(out.Missing) == 0 && key != "" && b.Complete() {
		version = b.VersionTag()
		if body, merr := json.Marshal(results); merr == nil {
			ent := s.qcache.put(key, version, append(body, '\n'))
			writeCachedResult(w, r, ent, true, "fill")
			return
		}
	}
	writeJSON(w, http.StatusOK, results)
}

// ownerGet fetches a per-shape path from the shard owning the id on the
// serving ring, falling back to the draining ring's owner during a
// migration's cutover window (a moved record lives on both owners until
// the post-cutover drop, and a record deleted from one may linger
// briefly on the other).
func (s *Server) ownerGet(ctx context.Context, id int64, path string, out any) error {
	coord := s.cluster.coord
	var firstErr error
	for _, idx := range coord.OwnerIndexes(id) {
		err := coord.Shard(idx).Call(ctx, http.MethodGet, path, nil, out)
		if err == nil {
			return nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// clusterShapes routes /api/shapes on a coordinator: GET fans the listing
// out and merges by id; POST allocates a globally-unique id and routes
// the insert to its owning shard.
func (s *Server) clusterShapes(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		coord := s.cluster.coord
		lists := make([][]ShapeInfo, coord.NumShards())
		errs := coord.ForEach(r.Context(), func(ctx context.Context, i int, sc *scatter.ShardClient) error {
			return sc.Call(ctx, http.MethodGet, "/api/shapes", nil, &lists[i])
		})
		var missing []string
		for i, err := range errs {
			if err != nil {
				if scatter.QueryFault(err) {
					s.writeScatterErr(w, err)
					return
				}
				missing = append(missing, scatter.ShardName(i))
				lists[i] = nil
			}
		}
		if len(missing) == coord.NumShards() {
			s.writeScatterErr(w, scatter.ErrNoShards)
			return
		}
		var out []ShapeInfo
		for _, l := range lists {
			out = append(out, l...)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		// During a migration's cutover window a moved shape exists on both
		// its old and new owner; adjacent equal ids collapse to one row.
		dedup := out[:0]
		for i, info := range out {
			if i > 0 && info.ID == dedup[len(dedup)-1].ID {
				continue
			}
			dedup = append(dedup, info)
		}
		out = dedup
		if out == nil {
			out = []ShapeInfo{}
		}
		setPartialHeader(w, missing)
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
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
		if req.ID != 0 {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("explicit ids are allocated by the coordinator"))
			return
		}
		key := r.Header.Get(IdempotencyKeyHeader)
		if key == "" {
			// Routed writes are ALWAYS keyed: the retry/hedging machinery
			// deliberately resends requests, and only shard-side
			// deduplication makes that safe.
			key = newIdemKey()
		}
		// Invalidate even on error: a timed-out routed write may still have
		// landed shard-side.
		defer s.bumpCacheGen()
		resp, err := s.routeInsert(r, key, req.Name, req.Group, req.MeshOFF)
		if err != nil {
			s.writeScatterErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, resp)
	default:
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}

// insertAnswer is a shard's insert acknowledgment.
type insertAnswer struct {
	ID       int64    `json:"id"`
	Degraded []string `json:"degraded"`
}

// routeInsert performs one keyed insert against the cluster: the
// idempotency key picks the shard (so a retried request reaches the same
// shard and replays instead of duplicating), an explicit id owned by that
// shard is allocated, and an id conflict (another coordinator instance,
// or a corpus loaded after seeding) bumps the allocator and retries with
// a fresh id.
func (s *Server) routeInsert(r *http.Request, key, name string, group int, meshOFF string) (*insertAnswer, error) {
	coord := s.cluster.coord
	// The WRITE ring routes new records: during a migration an insert
	// lands directly on its post-cutover owner and is never part of the
	// moved set.
	shard := coord.WriteOwnerKey(key)
	var lastErr error
	for range 4 {
		id, err := coord.AllocID(r.Context(), shard)
		if err != nil {
			return nil, err
		}
		body := map[string]any{"name": name, "group": group, "mesh_off": meshOFF, "id": id}
		var out insertAnswer
		err = coord.Shard(shard).CallIdem(r.Context(), http.MethodPost, "/api/shapes", key, body, &out)
		if err == nil {
			return &out, nil
		}
		if scatter.HTTPStatus(err) == http.StatusConflict {
			coord.BumpID(id)
			lastErr = err
			continue
		}
		return nil, err
	}
	return nil, fmt.Errorf("server: id allocation kept conflicting: %w", lastErr)
}

// clusterInsertBatch routes a bulk upload item by item: each item gets a
// per-item idempotency key derived from the batch key, which both picks
// its shard and makes a retried batch replay shard-side. Items fan out on
// the worker pool; like the single-node batch path, a failure partway
// leaves earlier items stored (the retried batch replays them by key).
func (s *Server) clusterInsertBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchInsertRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	if len(req.Shapes) == 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	key := r.Header.Get(IdempotencyKeyHeader)
	if key == "" {
		key = newIdemKey()
	}
	answers := make([]*insertAnswer, len(req.Shapes))
	errs := make([]error, len(req.Shapes))
	// Even a failed batch may have stored a prefix shard-side; invalidate
	// regardless of outcome.
	defer s.bumpCacheGen()
	if err := workpool.ForEachNCtx(r.Context(), 0, len(req.Shapes), func(i int) {
		sh := req.Shapes[i]
		if sh.ID != 0 {
			errs[i] = fmt.Errorf("shape %d (%q): explicit ids are allocated by the coordinator", i, sh.Name)
			return
		}
		answers[i], errs[i] = s.routeInsert(r, fmt.Sprintf("%s#%d", key, i), sh.Name, sh.Group, sh.MeshOFF)
	}); err != nil {
		writeEngineErr(w, err, http.StatusServiceUnavailable)
		return
	}
	for i, err := range errs {
		if err != nil {
			s.writeScatterErr(w, fmt.Errorf("shape %d (%q): %w", i, req.Shapes[i].Name, err))
			return
		}
	}
	resp := BatchInsertResponse{IDs: make([]int64, len(answers))}
	anyDegraded := false
	for i, a := range answers {
		resp.IDs[i] = a.ID
		if len(a.Degraded) > 0 {
			anyDegraded = true
		}
	}
	if anyDegraded {
		resp.Degraded = make([][]string, len(answers))
		for i, a := range answers {
			resp.Degraded[i] = a.Degraded
		}
	}
	writeJSON(w, http.StatusCreated, resp)
}

// clusterShapeByID proxies /api/shapes/{id}[/view|/features] to the
// owning shard. A single-shape read on a dead shard cannot degrade — it
// answers 503 with a retry hint rather than pretending absence (a 404
// here would be indistinguishable from a real miss).
func (s *Server) clusterShapeByID(w http.ResponseWriter, r *http.Request, id int64) {
	coord := s.cluster.coord
	switch r.Method {
	case http.MethodGet:
		var out json.RawMessage
		if err := s.ownerGet(r.Context(), id, r.URL.Path, &out); err != nil {
			s.writeScatterErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(out)
	case http.MethodDelete:
		key := r.Header.Get(IdempotencyKeyHeader)
		if key == "" {
			key = newIdemKey()
		}
		defer s.bumpCacheGen()
		// During the cutover double-routing window the record exists on
		// both owners; the delete must reach every copy or a search would
		// resurrect the shape from the one it missed. Outside a migration
		// this is a single call, exactly as before.
		var out json.RawMessage
		var okBody json.RawMessage
		deleted := false
		var firstErr error
		for _, idx := range coord.OwnerIndexes(id) {
			err := coord.Shard(idx).CallIdem(r.Context(), http.MethodDelete, r.URL.Path, key, nil, &out)
			switch {
			case err == nil:
				deleted = true
				if okBody == nil {
					okBody = out
				}
			case scatter.HTTPStatus(err) == http.StatusNotFound:
				// The copy was never on this owner (or is already gone);
				// absence is exactly the post-state a delete wants.
			default:
				if firstErr == nil {
					firstErr = err
				}
			}
		}
		if firstErr != nil {
			s.writeScatterErr(w, firstErr)
			return
		}
		if !deleted {
			writeErr(w, http.StatusNotFound, fmt.Errorf("shape %d not found", id))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(okBody)
	default:
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}

// clusterStats aggregates /api/stats across the fleet and appends the
// coordinator's own view: per-shard health/last-seen and the topology.
// Unreachable shards are named in X-Partial-Results and visible as
// unhealthy rows; the aggregate covers the survivors.
func (s *Server) clusterStats(w http.ResponseWriter, r *http.Request) {
	coord := s.cluster.coord
	stats := make([]StatsResponse, coord.NumShards())
	errs := coord.ForEach(r.Context(), func(ctx context.Context, i int, sc *scatter.ShardClient) error {
		return sc.Call(ctx, http.MethodGet, "/api/stats", nil, &stats[i])
	})
	resp := StatsResponse{
		Groups: map[string]int{},
		Role:   "coordinator",
	}
	var missing []string
	featSet := map[string]bool{}
	for i, err := range errs {
		if err != nil {
			missing = append(missing, scatter.ShardName(i))
			continue
		}
		st := stats[i]
		resp.Shapes += st.Shapes
		for g, n := range st.Groups {
			resp.Groups[g] += n
		}
		for _, f := range st.Features {
			featSet[f] = true
		}
		if st.MaxID > resp.MaxID {
			resp.MaxID = st.MaxID
		}
	}
	for f := range featSet {
		resp.Features = append(resp.Features, f)
	}
	sort.Strings(resp.Features)
	resp.Shards = coord.Health()
	// Fleet-wide breaker pressure in one number: how many times any
	// shard's circuit breaker tripped open since this coordinator started.
	for _, h := range resp.Shards {
		resp.BreakerOpens += h.BreakerOpens
	}
	st := coord.State()
	resp.Ring = &st
	resp.Rebalance = s.rebalanceStatus()
	s.fillPressureStats(&resp)
	setPartialHeader(w, missing)
	writeJSON(w, http.StatusOK, resp)
}
