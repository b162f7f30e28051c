package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"threedess/internal/scrub"
)

// The maintenance admin surface: GET /api/admin/maintenance reports the
// self-healing subsystem's state (background loop counters, last scrub /
// compaction reports, the startup recovery report, journal
// statistics, and the quarantine list); POST triggers one pass manually.
// The Maintainer is optional — embedded servers and tests that never call
// SetMaintenance get 503 from the endpoint, not a nil dereference.

// SetMaintenance attaches the self-healing maintainer whose status and
// manual triggers /api/admin/maintenance exposes. Safe to call (once)
// after the server is already serving.
func (s *Server) SetMaintenance(m *scrub.Maintainer) {
	s.maint.Store(m)
}

// AdminActionRequest is the POST body of /api/admin/maintenance.
type AdminActionRequest struct {
	// Action is one of "scrub", "compact".
	Action string `json:"action"`
}

func (s *Server) handleMaintenance(w http.ResponseWriter, r *http.Request) {
	m := s.maint.Load()
	if m == nil {
		writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("maintenance subsystem not configured"))
		return
	}
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, m.Status())
	case http.MethodPost:
		var req AdminActionRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeDecodeErr(w, err)
			return
		}
		switch req.Action {
		case "scrub":
			writeJSON(w, http.StatusOK, m.ScrubOnce(r.Context()))
		case "compact":
			rep := m.TriggerCompact()
			status := http.StatusOK
			if rep.Error != "" {
				// The trigger worked but compaction failed; the report
				// carries the error.
				status = http.StatusInternalServerError
			}
			writeJSON(w, status, rep)
		default:
			writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown action %q (want scrub or compact)", req.Action))
		}
	default:
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}
