package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"threedess/internal/core"
	"threedess/internal/features"
	"threedess/internal/geom"
	"threedess/internal/replica"
	"threedess/internal/shapedb"
)

// The replication integration suite: a primary and a warm standby as two
// real HTTP servers over two real durable databases, driven through the
// public client. The chaos test kills the primary mid-ingest under mixed
// live traffic and proves the title guarantee: zero acknowledged-write
// loss across automatic failover.

const testJournalName = "shapes.journal"

// logBuf collects standby log lines for assertions.
type logBuf struct {
	mu    sync.Mutex
	lines []string
}

func (l *logBuf) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logBuf) contains(sub string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ln := range l.lines {
		if strings.Contains(ln, sub) {
			return true
		}
	}
	return false
}

type replNode struct {
	dir     string
	db      *shapedb.DB
	engine  *core.Engine
	api     *Server
	srv     *httptest.Server
	node    *replica.Node
	standby *replica.Standby
	fault   *replica.FaultRT
	logs    *logBuf
	cancel  context.CancelFunc
}

func newReplServer(t *testing.T) *replNode {
	t.Helper()
	dir := t.TempDir()
	db, err := shapedb.Open(dir, features.Options{VoxelResolution: 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	engine := core.NewEngine(db)
	api := New(engine)
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)
	return &replNode{dir: dir, db: db, engine: engine, api: api, srv: srv}
}

func startReplPrimary(t *testing.T, ackTimeout time.Duration) *replNode {
	t.Helper()
	n := newReplServer(t)
	n.node = replica.NewPrimaryNode(n.srv.URL)
	n.api.SetReplication(n.node, ReplicationConfig{SyncWrites: true, AckTimeout: ackTimeout})
	return n
}

// standbyOpts tunes startReplStandby; zero values take sensible test
// defaults (25ms heartbeat, 500ms failover budget).
type standbyOpts struct {
	heartbeat     time.Duration
	failoverAfter time.Duration
	chunkBytes    int
	withFault     bool
	secret        string
}

func startReplStandby(t *testing.T, primary *replNode, o standbyOpts) *replNode {
	t.Helper()
	if o.heartbeat == 0 {
		o.heartbeat = 25 * time.Millisecond
	}
	if o.failoverAfter == 0 {
		o.failoverAfter = 500 * time.Millisecond
	}
	n := newReplServer(t)
	n.node = replica.NewStandbyNode(n.srv.URL, primary.srv.URL)
	n.api.SetReplication(n.node, ReplicationConfig{SyncWrites: true, AckTimeout: 3 * time.Second})
	n.logs = &logBuf{}
	var transport http.RoundTripper
	if o.withFault {
		n.fault = replica.NewFaultRT(nil)
		transport = n.fault
	}
	n.standby = replica.NewStandby(n.db, n.node, replica.StandbyConfig{
		Heartbeat:     o.heartbeat,
		FailoverAfter: o.failoverAfter,
		ChunkBytes:    o.chunkBytes,
		Transport:     transport,
		MarkerDir:     n.dir,
		Secret:        o.secret,
		Logf:          n.logs.logf,
	})
	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	n.standby.Start(ctx)
	t.Cleanup(func() {
		cancel()
		stopCtx, stopCancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer stopCancel()
		n.standby.Stop(stopCtx)
	})
	return n
}

func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out after %s waiting for %s", d, what)
}

func journalBytes(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, testJournalName))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fakeSet builds a valid feature set without running extraction, for tests
// that need many records cheaply.
func fakeSet(opts features.Options, base float64) features.Set {
	set := features.Set{}
	for _, k := range features.CoreKinds {
		v := make(features.Vector, opts.Dim(k))
		for i := range v {
			v[i] = base + float64(i)
		}
		set[k] = v
	}
	return set
}

func TestReplicationBootstrapCatchUpAndReadOnly(t *testing.T) {
	p := startReplPrimary(t, 3*time.Second)
	pc := NewClient(p.srv.URL)
	seedShapes(t, pc)

	s := startReplStandby(t, p, standbyOpts{})
	waitUntil(t, 10*time.Second, "standby catch-up", s.node.CaughtUp)
	waitUntil(t, 10*time.Second, "byte-identical journals", func() bool {
		a, err1 := os.ReadFile(filepath.Join(p.dir, testJournalName))
		b, err2 := os.ReadFile(filepath.Join(s.dir, testJournalName))
		return err1 == nil && err2 == nil && len(a) == len(b) && string(a) == string(b)
	})

	// The standby serves reads...
	sc := NewClient(s.srv.URL)
	shapes, err := sc.ListShapes()
	if err != nil || len(shapes) != 6 {
		t.Fatalf("standby ListShapes = %d shapes, %v", len(shapes), err)
	}
	res, err := sc.Search(SearchRequest{QueryID: shapes[0].ID, Feature: features.PrincipalMoments.String(), K: 3})
	if err != nil || len(res) == 0 {
		t.Fatalf("standby Search = %v, %v", res, err)
	}
	// ...and refuses writes with a pointer to the primary.
	resp, err := http.Post(s.srv.URL+"/api/shapes", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("standby POST status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get(replica.PrimaryHeader); got != p.srv.URL {
		t.Errorf("standby POST primary header = %q, want %q", got, p.srv.URL)
	}

	// A failover client pointed standby-first transparently reaches the
	// primary for writes.
	fc := NewFailoverClient(s.srv.URL, p.srv.URL)
	id, err := fc.InsertShape("via-redirect", 7, geom.Box(geom.V(0, 0, 0), geom.V(2, 3, 4)))
	if err != nil {
		t.Fatalf("failover client insert via standby: %v", err)
	}
	waitUntil(t, 5*time.Second, "redirected write to replicate", func() bool {
		_, ok := s.db.Get(id)
		return ok
	})

	// Sync-acked writes are on the standby's disk by the time the client
	// sees 2xx: insert through the primary, then check the standby store
	// immediately.
	id2, err := pc.InsertShape("synced", 7, geom.Box(geom.V(0, 0, 0), geom.V(5, 3, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.db.Get(id2); !ok {
		t.Error("acknowledged write not yet applied on the standby (sync-ack gate leaked)")
	}

	// /readyz reports role and lag on both nodes.
	var ready struct {
		Role string `json:"role"`
		Lag  *int64 `json:"replication_lag"`
	}
	if err := getJSON(p.srv.URL+ReadyzPath, &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Role != "primary" || ready.Lag == nil {
		t.Errorf("primary readyz = %+v", ready)
	}
	if err := getJSON(s.srv.URL+ReadyzPath, &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Role != "standby" {
		t.Errorf("standby readyz role = %q", ready.Role)
	}

	// Admin status is served on both.
	var status struct {
		Node replica.Status `json:"node"`
		Sync bool           `json:"sync"`
	}
	if err := getJSON(p.srv.URL+"/api/admin/replication", &status); err != nil {
		t.Fatal(err)
	}
	if status.Node.Role != "primary" || !status.Sync || !status.Node.StandbyAttached {
		t.Errorf("primary admin status = %+v", status)
	}
}

func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	return decodeResponse(resp, out)
}

func TestReplicationCompactionEpochRebootstrap(t *testing.T) {
	p := startReplPrimary(t, 3*time.Second)
	// Cheap direct inserts: this test is about journal identity, not
	// extraction.
	ids := make([]int64, 0, 12)
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))
	for i := 0; i < 12; i++ {
		id, err := p.db.Insert(fmt.Sprintf("c%d", i), i%3, mesh, fakeSet(p.db.Options(), float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	s := startReplStandby(t, p, standbyOpts{})
	waitUntil(t, 10*time.Second, "initial catch-up", s.node.CaughtUp)

	// ids[0] (base 0) is the low corner of every kind's box: the standby
	// bootstrapped from the compacted journal never sees it.
	for _, id := range ids[:6] {
		if _, err := p.db.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	epochBefore := p.db.ReplState().Epoch
	if err := p.db.Compact(); err != nil {
		t.Fatal(err)
	}
	if p.db.ReplState().Epoch == epochBefore {
		t.Fatal("compaction did not change the epoch")
	}

	// The standby notices the epoch change, re-bootstraps, and converges
	// to a byte-identical copy of the compacted journal.
	waitUntil(t, 10*time.Second, "post-compaction convergence", func() bool {
		a, err1 := os.ReadFile(filepath.Join(p.dir, testJournalName))
		b, err2 := os.ReadFile(filepath.Join(s.dir, testJournalName))
		return err1 == nil && err2 == nil && len(a) > 0 && string(a) == string(b)
	})
	if !s.logs.contains("bootstrapping") {
		t.Error("standby never logged a re-bootstrap after the epoch change")
	}
	if s.db.Len() != p.db.Len() {
		t.Errorf("replica Len = %d, primary %d", s.db.Len(), p.db.Len())
	}
	// Same live rows, so the same normalizer and the same threshold answer.
	query := fakeSet(p.db.Options(), 8.5)
	for _, kind := range features.CoreKinds {
		pst, err := p.engine.ColStore().Store(kind)
		if err != nil {
			t.Fatal(err)
		}
		sst, err := s.engine.ColStore().Store(kind)
		if err != nil {
			t.Fatal(err)
		}
		if pst.DMax() != sst.DMax() {
			t.Errorf("%v: standby DMax %v, primary %v", kind, sst.DMax(), pst.DMax())
		}
		opt := core.Options{Feature: kind, Threshold: 0.5, Weights: make([]float64, p.db.Options().Dim(kind))}
		for i := range opt.Weights {
			opt.Weights[i] = 1 + float64(i%2)
		}
		want, err := p.engine.SearchThreshold(context.Background(), query, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.engine.SearchThreshold(context.Background(), query, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("%v: standby threshold answer diverged\nstandby: %+v\nprimary: %+v", kind, got, want)
		}
	}
}

func TestChaosFailoverZeroAckedWriteLoss(t *testing.T) {
	p := startReplPrimary(t, 3*time.Second)
	s := startReplStandby(t, p, standbyOpts{heartbeat: 25 * time.Millisecond, failoverAfter: 400 * time.Millisecond})

	pc := NewClient(p.srv.URL)
	if _, err := pc.InsertShape("seed", 0, geom.Box(geom.V(0, 0, 0), geom.V(1, 2, 3))); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "standby attach + catch-up", s.node.CaughtUp)

	client := NewFailoverClient(p.srv.URL, s.srv.URL)
	client.MaxRetries = 14

	var (
		mu    sync.Mutex
		acked = map[string]int64{} // name -> id, only writes the client saw succeed
	)
	var queryErrs, queryOK atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var seq atomic.Int64

	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := seq.Add(1)
				name := fmt.Sprintf("chaos-%d", n)
				sz := 1 + float64(n%7)*0.25
				id, err := client.InsertShape(name, int(n%5), geom.Box(geom.V(0, 0, 0), geom.V(sz, 2, 3)))
				if err == nil {
					mu.Lock()
					acked[name] = id
					mu.Unlock()
				}
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}
	// Live read traffic rides along; errors during the failover window are
	// allowed, but reads must work again once the standby promotes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rc := NewFailoverClient(p.srv.URL, s.srv.URL)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := rc.ListShapes(); err != nil {
				queryErrs.Add(1)
			} else {
				queryOK.Add(1)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	// Let mixed traffic run, then kill the primary mid-ingest.
	waitUntil(t, 15*time.Second, "pre-kill acked writes", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(acked) >= 8
	})
	p.srv.CloseClientConnections()
	p.srv.Close()

	waitUntil(t, 15*time.Second, "standby promotion", func() bool {
		return s.node.Role() == replica.RolePrimary
	})
	// Keep traffic flowing on the new primary, then stop.
	preStop := time.Now()
	for time.Since(preStop) < 400*time.Millisecond {
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// Every acknowledged write must be present, queryable, and unique on
	// the promoted standby.
	sc := NewClient(s.srv.URL)
	shapes, err := sc.ListShapes()
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, sh := range shapes {
		count[sh.Name]++
	}
	mu.Lock()
	defer mu.Unlock()
	if len(acked) < 8 {
		t.Fatalf("only %d acked writes; chaos window too small", len(acked))
	}
	lost := 0
	for name := range acked {
		if count[name] == 0 {
			lost++
			t.Errorf("ACKNOWLEDGED WRITE LOST: %q acked by the old primary, absent after failover", name)
		}
	}
	for name, c := range count {
		if c > 1 {
			t.Errorf("duplicate shape %q stored %d times (idempotency failed)", name, c)
		}
	}
	if lost == 0 {
		t.Logf("chaos: %d acked writes all survived failover; %d total shapes; reads ok=%d err=%d; promotions=%d",
			len(acked), len(shapes), queryOK.Load(), queryErrs.Load(), s.node.Status().Promotions)
	}
	if queryOK.Load() == 0 {
		t.Error("no successful reads during the whole run")
	}

	// Post-promotion writes work directly against the new primary.
	if _, err := sc.InsertShape("post-failover", 9, geom.Box(geom.V(0, 0, 0), geom.V(3, 3, 3))); err != nil {
		t.Fatalf("write to promoted standby: %v", err)
	}
}

func TestStandbyRefusesPromotionWithoutCatchUp(t *testing.T) {
	p := startReplPrimary(t, 3*time.Second)
	// Enough journal that catch-up takes many pulls.
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))
	for i := 0; i < 60; i++ {
		if _, err := p.db.Insert(fmt.Sprintf("bulk%d", i), i%3, mesh, fakeSet(p.db.Options(), float64(i))); err != nil {
			t.Fatal(err)
		}
	}

	// Variant 1: partitioned from the start — the standby never reaches
	// the primary, so the failover clock never starts and it must not
	// promote no matter how long the silence.
	s1 := startReplStandby(t, p, standbyOpts{
		heartbeat: 10 * time.Millisecond, failoverAfter: 60 * time.Millisecond, withFault: true,
	})
	s1.fault.SetPartition(true)
	time.Sleep(300 * time.Millisecond)
	if s1.node.Role() != replica.RoleStandby {
		t.Fatal("never-connected standby promoted itself")
	}
	if s1.node.Status().Promotions != 0 {
		t.Fatal("never-connected standby counted a promotion")
	}
	s1.cancel()

	// Variant 2: killed mid-catch-up — the standby has contact and a
	// partial prefix, loses the primary, and must refuse promotion because
	// it never caught up (its prefix may miss earlier acknowledged writes).
	s2 := startReplStandby(t, p, standbyOpts{
		heartbeat: 10 * time.Millisecond, failoverAfter: 80 * time.Millisecond,
		chunkBytes: 1, withFault: true, // one frame per pull
	})
	s2.fault.SetDelay(20 * time.Millisecond) // stretch catch-up so the window is observable
	waitUntil(t, 10*time.Second, "partial catch-up", func() bool {
		st := s2.node.Status()
		return st.Applied > 0 && !st.CaughtUp
	})
	s2.fault.SetPartition(true) // primary "dies" mid-catch-up
	time.Sleep(400 * time.Millisecond)
	if s2.node.Role() != replica.RoleStandby {
		t.Fatal("half-caught-up standby promoted itself — it could be missing acknowledged writes")
	}
	if !s2.logs.contains("refusing promotion") {
		t.Error("standby did not log its promotion refusal")
	}
	// Heal the link: it finishes catch-up and becomes eligible.
	s2.fault.SetDelay(0)
	s2.fault.SetPartition(false)
	waitUntil(t, 10*time.Second, "post-heal catch-up", s2.node.CaughtUp)
}

func TestFencingPreventsTwoWritablePrimaries(t *testing.T) {
	p := startReplPrimary(t, 300*time.Millisecond) // short ack budget: deserted-primary writes fail fast
	pc := NewClient(p.srv.URL)
	seedShapes(t, pc)
	s := startReplStandby(t, p, standbyOpts{
		heartbeat: 15 * time.Millisecond, failoverAfter: 150 * time.Millisecond, withFault: true,
	})
	waitUntil(t, 10*time.Second, "catch-up", s.node.CaughtUp)

	// Partition the replication link both ways: the standby sees a silent
	// primary and promotes unilaterally (its fence cannot get through).
	s.fault.SetPartition(true)
	waitUntil(t, 10*time.Second, "unilateral promotion", func() bool {
		return s.node.Role() == replica.RolePrimary
	})
	if p.node.Role() != replica.RolePrimary {
		t.Fatal("old primary stepped down without being fenced?")
	}

	// Both nodes now claim the primary role — but only one can acknowledge
	// writes. The old primary journals the write, then times out waiting
	// for a standby attestation that can never come: 503, not 2xx.
	pc.MaxRetries = 0
	_, err := pc.InsertShape("split-brain", 1, geom.Box(geom.V(0, 0, 0), geom.V(2, 2, 2)))
	if err == nil {
		t.Fatal("deserted old primary ACKNOWLEDGED a write that exists on no replica")
	}
	if !strings.Contains(err.Error(), "503") && !strings.Contains(err.Error(), "ack") {
		t.Errorf("deserted-primary write error = %v, want an ack-timeout 503", err)
	}

	// The promoted standby acknowledges writes normally (its sync gate
	// re-latches only when a new standby attaches).
	sc := NewClient(s.srv.URL)
	if _, err := sc.InsertShape("new-primary-write", 1, geom.Box(geom.V(0, 0, 0), geom.V(2, 2, 5))); err != nil {
		t.Fatalf("promoted standby write: %v", err)
	}

	// When the partition heals, the new primary's term fences the old one:
	// it steps down and redirects clients.
	fenceBody := fmt.Sprintf(`{"term":%d,"primary":%q}`, s.node.Term(), s.srv.URL)
	resp, err := http.Post(p.srv.URL+replica.FencePath, "application/json", strings.NewReader(fenceBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if p.node.Role() != replica.RoleStandby {
		t.Fatal("old primary survived a higher-term fence")
	}
	resp2, err := http.Post(p.srv.URL+"/api/shapes", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable || resp2.Header.Get(replica.PrimaryHeader) != s.srv.URL {
		t.Errorf("fenced ex-primary: status=%d primary=%q, want 503 pointing at %s",
			resp2.StatusCode, resp2.Header.Get(replica.PrimaryHeader), s.srv.URL)
	}

	// A stale fence (the old primary trying to reclaim at its old term)
	// is refused.
	resp3, err := http.Post(s.srv.URL+replica.FencePath, "application/json", strings.NewReader(`{"term":1,"primary":"http://stale"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusConflict {
		t.Errorf("stale fence status = %d, want 409", resp3.StatusCode)
	}
}

func TestDrainWritesMarkerAndResumesWithoutRebootstrap(t *testing.T) {
	p := startReplPrimary(t, 3*time.Second)
	pc := NewClient(p.srv.URL)
	seedShapes(t, pc)
	s := startReplStandby(t, p, standbyOpts{})
	waitUntil(t, 10*time.Second, "catch-up", s.node.CaughtUp)

	// Graceful stop: flush + synced marker.
	s.cancel()
	stopCtx, stopCancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer stopCancel()
	if err := s.standby.Stop(stopCtx); err != nil {
		t.Fatalf("standby drain: %v", err)
	}
	m, ok := replica.LoadMarker(s.dir)
	if !ok {
		t.Fatal("no marker after drain")
	}
	if m.Epoch != p.db.ReplState().Epoch || m.Applied != p.db.ReplState().Committed {
		t.Fatalf("marker = %+v, primary at %+v", m, p.db.ReplState())
	}
	if err := s.db.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart the standby over the same directory: it must resume the
	// stream (no "bootstrapping" log line, no journal truncation) and pick
	// up writes made while it was down. With sync acks and the standby
	// gone, an HTTP write cannot be *acknowledged* (that is the point of
	// the gate), so commit one directly into the primary's store to model
	// a journaled-but-unacknowledged write the standby missed.
	id, err := p.db.Insert("while-down", 4, geom.Box(geom.V(0, 0, 0), geom.V(7, 2, 2)), fakeSet(p.db.Options(), 9))
	if err != nil {
		t.Fatal(err)
	}

	db2, err := shapedb.Open(s.dir, features.Options{VoxelResolution: 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db2.Close() })
	node2 := replica.NewStandbyNode(s.srv.URL, p.srv.URL)
	logs2 := &logBuf{}
	sb2 := replica.NewStandby(db2, node2, replica.StandbyConfig{
		Heartbeat: 25 * time.Millisecond,
		MarkerDir: s.dir,
		Logf:      logs2.logf,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sb2.Start(ctx)
	t.Cleanup(func() {
		cancel()
		sc, scCancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer scCancel()
		sb2.Stop(sc)
	})
	waitUntil(t, 10*time.Second, "resumed catch-up", func() bool {
		_, ok := db2.Get(id)
		return ok
	})
	if logs2.contains("bootstrapping") {
		t.Error("restarted standby re-bootstrapped despite a valid marker (drain was pointless)")
	}
	if got, want := journalBytes(t, s.dir), journalBytes(t, p.dir); string(got) != string(want) {
		t.Error("journals diverged after resume")
	}
}

func TestReadyzStandbyNotReadyUntilCaughtUp(t *testing.T) {
	p := startReplPrimary(t, 3*time.Second)
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))
	for i := 0; i < 20; i++ {
		if _, err := p.db.Insert(fmt.Sprintf("r%d", i), 1, mesh, fakeSet(p.db.Options(), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	s := startReplStandby(t, p, standbyOpts{withFault: true})
	s.fault.SetPartition(true) // hold it in the catching-up state

	resp, err := http.Get(s.srv.URL + ReadyzPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("catching-up standby readyz = %d, want 503", resp.StatusCode)
	}

	s.fault.SetPartition(false)
	waitUntil(t, 10*time.Second, "catch-up", s.node.CaughtUp)
	var ready struct {
		Ready bool   `json:"ready"`
		Role  string `json:"role"`
	}
	if err := getJSON(s.srv.URL+ReadyzPath, &ready); err != nil {
		t.Fatal(err)
	}
	if !ready.Ready || ready.Role != "standby" {
		t.Errorf("caught-up standby readyz = %+v", ready)
	}
}

// TestIdempotentReplayWaitsForAck closes the replay hole in the sync-ack
// gate: a write journaled while the standby is unreachable fails with 503
// and tells the client to retry under its key — but the keyed retry must
// carry the same durability attestation as the original, not a free 200
// for a write that exists only on the primary's disk.
func TestIdempotentReplayWaitsForAck(t *testing.T) {
	p := startReplPrimary(t, 250*time.Millisecond)
	pc := NewClient(p.srv.URL)
	if _, err := pc.InsertShape("seed", 0, geom.Box(geom.V(0, 0, 0), geom.V(1, 2, 3))); err != nil {
		t.Fatal(err)
	}
	// A huge failover budget keeps the partitioned standby a standby: this
	// test is about the replay gate, not promotion.
	s := startReplStandby(t, p, standbyOpts{withFault: true, failoverAfter: time.Hour})
	waitUntil(t, 10*time.Second, "catch-up", s.node.CaughtUp)

	s.fault.SetPartition(true)
	body := offBody(t, "replay-gated", 1)
	st1, _ := postKeyed(t, p.srv.URL+"/api/shapes", "replay-key", body)
	if st1 != http.StatusServiceUnavailable {
		t.Fatalf("insert with partitioned standby = %d, want 503", st1)
	}
	// The write is journaled and the key is in the dedup index; the retry
	// must still be held behind the ack gate while the standby is gone.
	st2, _ := postKeyed(t, p.srv.URL+"/api/shapes", "replay-key", body)
	if st2 != http.StatusServiceUnavailable {
		t.Fatalf("idempotent replay acked an unreplicated write: status %d, want 503", st2)
	}

	// Same gate on the batch replay path.
	batch, err := MeshToOFF(geom.Box(geom.V(0, 0, 0), geom.V(2, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	batchBody, err := json.Marshal(BatchInsertRequest{Shapes: []BatchShape{{Name: "replay-b", Group: 2, MeshOFF: batch}}})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := postKeyed(t, p.srv.URL+"/api/shapes/batch", "replay-batch", batchBody); st != http.StatusServiceUnavailable {
		t.Fatalf("batch insert with partitioned standby = %d, want 503", st)
	}
	if st, _ := postKeyed(t, p.srv.URL+"/api/shapes/batch", "replay-batch", batchBody); st != http.StatusServiceUnavailable {
		t.Fatalf("batch idempotent replay acked an unreplicated write: status %d, want 503", st)
	}

	// Heal the link: the same retries now converge to acknowledged replays
	// of the original writes, exactly once each.
	s.fault.SetPartition(false)
	waitUntil(t, 10*time.Second, "replay acknowledged after heal", func() bool {
		st, out := postKeyed(t, p.srv.URL+"/api/shapes", "replay-key", body)
		return st == http.StatusOK && out["idempotent_replay"] == true
	})
	waitUntil(t, 10*time.Second, "batch replay acknowledged after heal", func() bool {
		st, out := postKeyed(t, p.srv.URL+"/api/shapes/batch", "replay-batch", batchBody)
		return st == http.StatusOK && out["idempotent_replay"] == true
	})
	count := 0
	shapes, err := pc.ListShapes()
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shapes {
		if sh.Name == "replay-gated" || sh.Name == "replay-b" {
			count++
		}
	}
	if count != 2 {
		t.Errorf("found %d gated shapes, want exactly 2 (no duplicates, no losses)", count)
	}
	// And the acknowledged writes really are on the standby.
	waitUntil(t, 10*time.Second, "standby holds the writes", func() bool {
		return s.db.Len() == p.db.Len()
	})
}

// TestStreamRejectsInflatedAckOffset: an ack attestation must be clamped
// to the journal. A request claiming an offset past the committed end (a
// buggy standby or any client that read the epoch off the state endpoint)
// must be refused without latching a watermark that would satisfy every
// future sync-ack wait.
func TestStreamRejectsInflatedAckOffset(t *testing.T) {
	p := startReplPrimary(t, 250*time.Millisecond)
	pc := NewClient(p.srv.URL)
	seedShapes(t, pc) // no standby attached: writes ack locally
	st := p.db.ReplState()

	for _, off := range []int64{st.Committed + 1, st.Committed + 1<<40, -1} {
		resp, err := http.Get(fmt.Sprintf("%s%s?epoch=%d&off=%d", p.srv.URL, replica.StreamPath, st.Epoch, off))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("stream with off=%d = %d, want 400", off, resp.StatusCode)
		}
	}
	status := p.node.Status()
	if status.StandbyAttached || status.AckedOffset != 0 {
		t.Fatalf("out-of-range offset latched an ack watermark: %+v", status)
	}
	// Writes still acknowledge locally (the bogus request did not attach a
	// phantom standby whose acks would now be awaited).
	if _, err := pc.InsertShape("after-bogus", 1, geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 2))); err != nil {
		t.Fatalf("write after rejected bogus ack: %v", err)
	}
	// A genuine in-range request still streams.
	resp, err := http.Get(fmt.Sprintf("%s%s?epoch=%d&off=0", p.srv.URL, replica.StreamPath, st.Epoch))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-range stream = %d, want 200", resp.StatusCode)
	}
}

// TestReplicationPeerSecretGate: with a peer secret configured, the
// replication protocol endpoints refuse requests without the matching
// header — in particular a fence carrying a huge term cannot demote the
// primary — while a standby configured with the secret replicates
// normally.
func TestReplicationPeerSecretGate(t *testing.T) {
	const secret = "test-peer-secret"
	p := newReplServer(t)
	p.node = replica.NewPrimaryNode(p.srv.URL)
	p.api.SetReplication(p.node, ReplicationConfig{SyncWrites: true, AckTimeout: 3 * time.Second, PeerSecret: secret})
	pc := NewClient(p.srv.URL)
	seedShapes(t, pc)

	get := func(path, hdr string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, p.srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if hdr != "" {
			req.Header.Set(replica.SecretHeader, hdr)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	streamPath := fmt.Sprintf("%s?epoch=%d&off=0", replica.StreamPath, p.db.ReplState().Epoch)
	for _, path := range []string{replica.StatePath, streamPath} {
		if st := get(path, ""); st != http.StatusForbidden {
			t.Errorf("GET %s without secret = %d, want 403", path, st)
		}
		if st := get(path, "wrong"); st != http.StatusForbidden {
			t.Errorf("GET %s with wrong secret = %d, want 403", path, st)
		}
		if st := get(path, secret); st != http.StatusOK {
			t.Errorf("GET %s with secret = %d, want 200", path, st)
		}
	}

	// An unauthenticated fence with an absurd term must not demote the
	// primary or poison its term.
	termBefore := p.node.Term()
	resp, err := http.Post(p.srv.URL+replica.FencePath, "application/json",
		strings.NewReader(`{"term":1152921504606846976,"primary":"http://attacker"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("unauthenticated fence = %d, want 403", resp.StatusCode)
	}
	if p.node.Role() != replica.RolePrimary || p.node.Term() != termBefore {
		t.Fatalf("unauthenticated fence changed node state: role=%s term=%d", p.node.Role(), p.node.Term())
	}

	// A standby carrying the secret attaches, replicates, and satisfies
	// the sync-ack gate.
	s := startReplStandby(t, p, standbyOpts{secret: secret})
	waitUntil(t, 10*time.Second, "secured standby catch-up", s.node.CaughtUp)
	if _, err := pc.InsertShape("secured", 3, geom.Box(geom.V(0, 0, 0), geom.V(2, 2, 2))); err != nil {
		t.Fatalf("write with secured standby: %v", err)
	}
}

// TestNewFailoverClientNoEndpoints: the zero-argument call must not panic;
// requests fail with an ordinary error.
func TestNewFailoverClientNoEndpoints(t *testing.T) {
	c := NewFailoverClient()
	c.MaxRetries = 0
	if _, err := c.ListShapes(); err == nil {
		t.Fatal("endpoint-less failover client succeeded?")
	}
}
