package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"threedess/internal/core"
	"threedess/internal/features"
	"threedess/internal/geom"
	"threedess/internal/scrub"
	"threedess/internal/shapedb"
)

// maintServer spins up an httptest server over a durable database with
// the maintenance subsystem attached.
func maintServer(t *testing.T) (string, *shapedb.DB, *scrub.Maintainer) {
	t.Helper()
	db, err := shapedb.Open(t.TempDir(), features.Options{VoxelResolution: 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	srv := New(core.NewEngine(db))
	m := scrub.New(db, scrub.Config{Workers: 2})
	srv.SetMaintenance(m)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts.URL, db, m
}

func postAction(t *testing.T, url, action string) *http.Response {
	t.Helper()
	body, _ := json.Marshal(AdminActionRequest{Action: action})
	resp, err := http.Post(url+"/api/admin/maintenance", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestMaintenanceEndpointUnconfigured(t *testing.T) {
	c, _ := testServer(t) // plain test server: no SetMaintenance
	resp, err := http.Get(c.BaseURL + "/api/admin/maintenance")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unconfigured endpoint returned %d, want 503", resp.StatusCode)
	}
}

func TestMaintenanceStatusAndTriggers(t *testing.T) {
	url, db, _ := maintServer(t)
	var ids []int64
	for i := 0; i < 6; i++ {
		mesh := geom.Box(geom.V(0, 0, 0), geom.V(1+float64(i), 1, 1))
		set := features.Set{}
		for _, k := range features.CoreKinds {
			v := make(features.Vector, db.Options().Dim(k))
			for d := range v {
				v[d] = float64(i + d)
			}
			set[k] = v
		}
		id, err := db.Insert("a", i, mesh, set)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	// GET: baseline status, including the startup recovery report.
	resp, err := http.Get(url + "/api/admin/maintenance")
	if err != nil {
		t.Fatal(err)
	}
	var st scrub.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st.ScrubRuns != 0 || !st.Journal.Durable {
		t.Fatalf("baseline status (%d): %+v", resp.StatusCode, st)
	}
	if st.Recovery == nil {
		t.Fatal("status omits the startup recovery report")
	}

	// POST scrub: a clean store scrubs clean.
	resp = postAction(t, url, "scrub")
	var srep scrub.ScrubReport
	if err := json.NewDecoder(resp.Body).Decode(&srep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || srep.Checked != 6 || srep.Clean != 6 {
		t.Fatalf("scrub action (%d): %+v", resp.StatusCode, srep)
	}

	// POST reconcile: not an action; the refusal names the ones there are.
	resp = postAction(t, url, "reconcile")
	var rerr map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&rerr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if msg := rerr["error"]; resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(msg, "scrub") || !strings.Contains(msg, "compact") {
		t.Fatalf("reconcile action (%d): %v", resp.StatusCode, rerr)
	}

	// POST compact after deletes: dead entries reclaimed.
	for _, id := range ids[:3] {
		if _, err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	resp = postAction(t, url, "compact")
	var crep scrub.CompactReport
	if err := json.NewDecoder(resp.Body).Decode(&crep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || crep.Trigger != "manual" || crep.Error != "" {
		t.Fatalf("compact action (%d): %+v", resp.StatusCode, crep)
	}
	if crep.After.DeadEntries != 0 || crep.Before.DeadEntries == 0 {
		t.Fatalf("compaction reclaimed nothing: %+v", crep)
	}

	// Status reflects both runs.
	resp, err = http.Get(url + "/api/admin/maintenance")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.ScrubRuns != 1 || st.CompactRuns != 1 {
		t.Fatalf("status counters: %+v", st)
	}
	if st.LastScrub == nil || st.LastCompact == nil {
		t.Fatalf("status missing reports: %+v", st)
	}

	// Bad action and bad method.
	resp = postAction(t, url, "explode")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown action returned %d, want 400", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, url+"/api/admin/maintenance", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE returned %d, want 405", resp.StatusCode)
	}
}

// TestMaintenanceSurfacesQuarantine checks the admin endpoint reports
// quarantined records and the degraded journal stats an operator would
// act on.
func TestMaintenanceSurfacesQuarantine(t *testing.T) {
	url, db, _ := maintServer(t)
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(2, 1, 1))
	set := features.Set{}
	for _, k := range features.CoreKinds {
		v := make(features.Vector, db.Options().Dim(k))
		for d := range v {
			v[d] = float64(d)
		}
		set[k] = v
	}
	id, err := db.Insert("rotten", 0, mesh, set)
	if err != nil {
		t.Fatal(err)
	}
	if !db.Quarantine(id, shapedb.ScrubBitRot, "injected for test") {
		t.Fatal("quarantine failed")
	}
	resp, err := http.Get(url + "/api/admin/maintenance")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st scrub.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Quarantined) != 1 || st.Quarantined[0].ID != id {
		t.Fatalf("quarantine not surfaced: %+v", st)
	}
	if st.Journal.UnhealedQuarantine != 1 {
		t.Fatalf("unhealed quarantine not surfaced: %+v", st.Journal)
	}
}
