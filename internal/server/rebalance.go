package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strconv"

	"threedess/internal/scatter"
)

// Live shard rebalancing (DESIGN.md §14), server side. Three surfaces:
//
//   - the EPOCH GATE: every coordinator↔shard call carries X-Ring-Epoch;
//     a shard whose versioned ring state disagrees answers 409 with its
//     current RingState so the stale side self-heals and retries;
//   - the shard MIGRATION ENDPOINTS (/api/cluster/{ring,moved,export,
//     import,crc,dropmoved}) the scatter.Migrator drives — enumeration,
//     byte-exact copy, CRC verification, fenced deletion;
//   - the coordinator ADMIN endpoint (/api/admin/rebalance) that starts,
//     observes, and cancels a migration.

// RingPath is the versioned-topology exchange endpoint: GET returns the
// node's current RingState, POST pushes one (fenced adoption). It is the
// one cluster endpoint exempt from the epoch gate — it IS the mechanism
// that repairs epoch disagreement.
const RingPath = "/api/cluster/ring"

// checkRingEpoch is the shard-side epoch gate, run before the mux
// dispatches any request. Requests without the header (external clients,
// probes) pass: the gate exists to keep two COORDINATOR views from
// interleaving mid-migration, not to authenticate readers. Returns false
// when the request was answered with 409 + the current ring state.
func (s *Server) checkRingEpoch(w http.ResponseWriter, r *http.Request) bool {
	c := s.cluster
	if c == nil || c.state == nil {
		return true // not a shard: nothing to gate
	}
	hdr := r.Header.Get(scatter.RingEpochHeader)
	if hdr == "" || r.URL.Path == RingPath {
		return true
	}
	cur := c.state.State()
	if epoch, err := strconv.ParseInt(hdr, 10, 64); err == nil && epoch == cur.Epoch {
		return true
	}
	writeJSON(w, http.StatusConflict, map[string]any{
		"error": fmt.Sprintf("ring epoch mismatch: caller at %s, %s at %d",
			hdr, scatter.ShardName(c.index), cur.Epoch),
		"ring": cur,
	})
	return false
}

// handleClusterRing serves the RingState exchange on both roles. The 200
// body is the bare RingState in effect after the request (what
// scatter.pushState expects); a fenced rejection is 409 with the state
// wrapped in {"ring": ...} (what scatter.DecodeRingState expects).
func (s *Server) handleClusterRing(w http.ResponseWriter, r *http.Request) {
	c := s.cluster
	if c == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("not a cluster node"))
		return
	}
	switch r.Method {
	case http.MethodGet:
		if c.state != nil {
			writeJSON(w, http.StatusOK, c.state.State())
		} else {
			writeJSON(w, http.StatusOK, c.coord.State())
		}
	case http.MethodPost:
		var st scatter.RingState
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			writeDecodeErr(w, err)
			return
		}
		if c.state != nil {
			got, ok := c.state.Adopt(st)
			if !ok {
				writeJSON(w, http.StatusConflict, map[string]any{
					"error": fmt.Sprintf("ring state (epoch %d, term %d) rejected; %s holds epoch %d at term %d",
						st.Epoch, st.Term, scatter.ShardName(c.index), got.Epoch, got.Term),
					"ring": got,
				})
				return
			}
			writeJSON(w, http.StatusOK, got)
			return
		}
		// Coordinator: adopt a newer state (an operator or a peer
		// coordinator relaying what the fleet agreed on); an older one is
		// a no-op, never an error — this node is already ahead.
		if err := c.coord.AdoptState(st); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, c.coord.State())
	default:
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}

// onShardOnly refuses migration data-plane endpoints on non-shard nodes.
func (s *Server) onShardOnly(w http.ResponseWriter) bool {
	if c := s.cluster; c != nil && c.state != nil {
		return true
	}
	writeErr(w, http.StatusNotImplemented, fmt.Errorf("migration endpoints exist only on shards"))
	return false
}

// handleClusterMoved enumerates records this shard holds whose WRITE-ring
// owner is some other shard — the set a migration must move — paged by
// (after, limit) over ascending ids. The enumeration is always taken from
// the source: a fresh client insert only ever lands on its write-ring
// owner, so it can never appear here and never be mistaken for a stale
// copy (see DESIGN.md §14 for why that invariant carries the whole
// zero-loss argument).
func (s *Server) handleClusterMoved(w http.ResponseWriter, r *http.Request) {
	if !s.onShardOnly(w) {
		return
	}
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req scatter.MovedRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	limit := req.Limit
	if limit <= 0 || limit > 4096 {
		limit = 4096
	}
	c := s.cluster
	resp := scatter.MovedResponse{IDs: []int64{}}
	for _, id := range s.engine.DB().IDs() {
		if id <= req.After || c.state.WriteOwner(id) == c.index {
			continue
		}
		if len(resp.IDs) == limit {
			resp.More = true
			break
		}
		resp.IDs = append(resp.IDs, id)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleClusterExport ships records by id as byte-exact journal frames
// plus canonical content CRCs. Ids deleted since enumeration are skipped
// (the reconcile pass drops their destination copies); a frame that fails
// the scrubber's re-verification fails the whole export — rot must not
// propagate.
func (s *Server) handleClusterExport(w http.ResponseWriter, r *http.Request) {
	if !s.onShardOnly(w) {
		return
	}
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req scatter.ExportRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	frames, err := s.engine.DB().ExportRecords(req.IDs)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, scatter.ExportResponse{Records: frames})
}

// handleClusterImport lands exported records, fenced by the driver's
// term: a superseded driver's imports are refused with the 409 ring
// answer so it stops instead of racing the new driver. The import itself
// is idempotent — ids already present are skipped — which is what makes
// resumed copy batches safe to re-drive.
func (s *Server) handleClusterImport(w http.ResponseWriter, r *http.Request) {
	if !s.onShardOnly(w) {
		return
	}
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req scatter.ImportRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	c := s.cluster
	if !c.state.ObserveTerm(req.Term, req.Holder) {
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": fmt.Sprintf("import fenced: term %d holder %q is stale", req.Term, req.Holder),
			"ring":  c.state.State(),
		})
		return
	}
	added, err := s.engine.DB().ImportFrames(req.Records)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, scatter.ImportResponse{Added: added})
}

// handleClusterCRC answers canonical content CRCs for the requested ids
// — the verification round of a copy batch.
func (s *Server) handleClusterCRC(w http.ResponseWriter, r *http.Request) {
	if !s.onShardOnly(w) {
		return
	}
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req scatter.CRCRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	crcs, missing := s.engine.DB().RecordCRCs(req.IDs)
	resp := scatter.CRCResponse{IDs: []int64{}, CRCs: []uint32{}, Missing: missing}
	for _, id := range req.IDs {
		if crc, ok := crcs[id]; ok {
			resp.IDs = append(resp.IDs, id)
			resp.CRCs = append(resp.CRCs, crc)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleClusterDropMoved deletes every record whose SERVING-ring owner is
// no longer this shard, in one journaled batch. The driver only sends
// this after the cutover state was acked by the entire fleet, so every
// reader already resolves the moved records to their new owners; the
// fencing term keeps a superseded driver from dropping anything under a
// newer migration's feet.
func (s *Server) handleClusterDropMoved(w http.ResponseWriter, r *http.Request) {
	if !s.onShardOnly(w) {
		return
	}
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req scatter.DropMovedRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	c := s.cluster
	if !c.state.ObserveTerm(req.Term, req.Holder) {
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": fmt.Sprintf("drop fenced: term %d holder %q is stale", req.Term, req.Holder),
			"ring":  c.state.State(),
		})
		return
	}
	var moved []int64
	for _, id := range s.engine.DB().IDs() {
		if c.state.ServingOwner(id) != c.index {
			moved = append(moved, id)
		}
	}
	dropped, err := s.engine.DB().DeleteMany(moved)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, scatter.DropMovedResponse{Dropped: dropped})
}

// StartRebalance launches a migration (or the resume of one) on this
// coordinator in the background and returns its Migrator. Empty
// opts.StatePath takes Config.RebalancePath. At most one migration runs
// at a time.
func (s *Server) StartRebalance(opts scatter.MigrateOptions) (*scatter.Migrator, error) {
	if !s.isCoordinator() {
		return nil, fmt.Errorf("server: rebalancing is driven from a coordinator")
	}
	if opts.StatePath == "" {
		opts.StatePath = s.cfg.RebalancePath
	}
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	s.rebalMu.Lock()
	defer s.rebalMu.Unlock()
	if s.rebalActive {
		return nil, fmt.Errorf("server: a rebalance is already running")
	}
	m := scatter.NewMigrator(s.cluster.coord, opts)
	ctx, cancel := context.WithCancel(context.Background())
	s.migrator, s.rebalActive, s.rebalCancel = m, true, cancel
	go func() {
		defer cancel()
		if err := m.Run(ctx); err != nil {
			log.Printf("server: rebalance: %v", err)
		}
		s.rebalMu.Lock()
		s.rebalActive = false
		s.rebalMu.Unlock()
	}()
	return m, nil
}

// ResumeRebalance restarts an interrupted migration from the persisted
// state journal, if one describes unfinished work. Returns whether a
// resume was started. cmd/3dess calls this on coordinator startup.
func (s *Server) ResumeRebalance() (bool, error) {
	if !s.isCoordinator() || s.cfg.RebalancePath == "" {
		return false, nil
	}
	// A probe load decides whether the journal holds an unfinished
	// migration; Target 0 means "resume only", and its "nothing to do"
	// errors are not failures.
	probe := scatter.NewMigrator(s.cluster.coord, scatter.MigrateOptions{StatePath: s.cfg.RebalancePath})
	if _, _, err := probe.LoadPlan(); err != nil {
		return false, nil
	}
	_, err := s.StartRebalance(scatter.MigrateOptions{StatePath: s.cfg.RebalancePath})
	return err == nil, err
}

// rebalanceStatus snapshots the live (or last) migration, nil when none
// was ever started on this node.
func (s *Server) rebalanceStatus() *scatter.MigrationStatus {
	s.rebalMu.Lock()
	m := s.migrator
	s.rebalMu.Unlock()
	if m == nil {
		return nil
	}
	st := m.Status()
	return &st
}

// handleAdminRebalance is the operator surface: GET reports progress,
// POST {"target": M, "add": [["http://new-shard:8080"], ...]} starts a
// grow/shrink migration (or {"resume": true} resumes from the state
// journal), DELETE cancels the running driver (safe: every phase resumes
// from persisted state).
func (s *Server) handleAdminRebalance(w http.ResponseWriter, r *http.Request) {
	if !s.isCoordinator() {
		writeErr(w, http.StatusNotImplemented, fmt.Errorf("rebalancing is driven from a coordinator"))
		return
	}
	switch r.Method {
	case http.MethodGet:
		st := s.rebalanceStatus()
		if st == nil {
			st = &scatter.MigrationStatus{}
		}
		writeJSON(w, http.StatusOK, st)
	case http.MethodPost:
		var req struct {
			Target    int        `json:"target"`
			Add       [][]string `json:"add,omitempty"`
			Resume    bool       `json:"resume,omitempty"`
			BatchSize int        `json:"batch_size,omitempty"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeDecodeErr(w, err)
			return
		}
		if req.Target < 1 && !req.Resume {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("target shard count (or resume) required"))
			return
		}
		opts := scatter.MigrateOptions{Target: req.Target, BatchSize: req.BatchSize}
		for _, eps := range req.Add {
			opts.Add = append(opts.Add, scatter.ShardSpec{Endpoints: eps})
		}
		m, err := s.StartRebalance(opts)
		if err != nil {
			writeErr(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusAccepted, m.Status())
	case http.MethodDelete:
		s.rebalMu.Lock()
		cancel := s.rebalCancel
		s.rebalMu.Unlock()
		if cancel != nil {
			cancel()
		}
		writeJSON(w, http.StatusOK, map[string]any{"canceled": true})
	default:
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}
