package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"threedess/internal/core"
	"threedess/internal/features"
	"threedess/internal/geom"
	"threedess/internal/scatter"
	"threedess/internal/server"
	"threedess/internal/shapedb"
)

// fixture is one system under test: in-process server.Server instances
// behind real loopback listeners, as cmd/benchrunner's bootCluster builds
// them. In-process servers let the traced run call each layer's exported
// functions on the very engine the HTTP ops hit; the clients still pay
// the full net/http path.
type fixture struct {
	url string         // the front door clients talk to
	srv *server.Server // its handler, for replay without TCP

	// Single-node fixtures (A, B).
	eng *core.Engine
	dir string // journal directory of the durable node ("" = in-memory)
	// corpusJournal is the journal size right after the corpus load.
	corpusJournal int64

	// Cluster fixture (C).
	coord     *scatter.Coordinator
	shardURLs []string

	setup   time.Duration // fixture start → first successful request
	closers []func()
}

func (f *fixture) Close() {
	for i := len(f.closers) - 1; i >= 0; i-- {
		f.closers[i]()
	}
	f.closers = nil
}

func (f *fixture) onClose(fn func()) { f.closers = append(f.closers, fn) }

// serve puts a node behind a loopback listener with the background loops
// cmd/3dess runs next to it (column refresh and cache invalidation on
// commit), so the node under test is wired as the shipped binary is.
func (f *fixture) serve(eng *core.Engine, srv *server.Server) string {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{}, 2)
	go func() { eng.ColStore().Watch(ctx); done <- struct{}{} }()
	go func() { srv.WatchCache(ctx); done <- struct{}{} }()
	ts := httptest.NewServer(srv)
	f.onClose(func() {
		ts.Close()
		cancel()
		<-done
		<-done
	})
	return ts.URL
}

// startPaperNode builds fixture A: a durable node (journal + fsync per
// insert, the shipped flush policy) loaded with the corpus through
// POST /api/shapes/batch. Set-up ends with the first successful search.
func startPaperNode(g *generator, tmpRoot string) (*fixture, error) {
	batches := g.batchRequests() // request bodies are the bench's work, not the system's
	probe := g.idQueries()[0].body()
	f := &fixture{}
	start := time.Now()
	dir, err := os.MkdirTemp(tmpRoot, "paper-node-")
	if err != nil {
		return nil, err
	}
	f.dir = dir
	f.onClose(func() { os.RemoveAll(dir) })
	db, err := shapedb.Open(dir, coreOpts)
	if err != nil {
		f.Close()
		return nil, err
	}
	f.onClose(func() { db.Close() })
	f.eng = core.NewEngine(db)
	f.srv = server.New(f.eng)
	f.url = f.serve(f.eng, f.srv)

	c := newClient()
	defer c.CloseIdleConnections()
	next := int64(1)
	for _, body := range batches {
		var resp server.BatchInsertResponse
		if err := postJSON(c, f.url+"/api/shapes/batch", body, http.StatusCreated, &resp); err != nil {
			f.Close()
			return nil, fmt.Errorf("loading corpus: %w", err)
		}
		for i, id := range resp.IDs {
			if id != next {
				f.Close()
				return nil, fmt.Errorf("loading corpus: shape %d stored as id %d", next, id)
			}
			if resp.Degraded != nil && len(resp.Degraded[i]) > 0 {
				f.Close()
				return nil, fmt.Errorf("loading corpus: shape %d degraded %v", id, resp.Degraded[i])
			}
			next++
		}
	}
	f.corpusJournal = journalSize(dir)
	if err := postJSON(c, f.url+"/api/search", probe, http.StatusOK, nil); err != nil {
		f.Close()
		return nil, fmt.Errorf("first search: %w", err)
	}
	f.setup = time.Since(start)
	return f, nil
}

// boxMesh is the one mesh every synthetic record shares.
var boxMesh = geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))

func insertRow(db *shapedb.DB, r *row) error {
	_, err := db.InsertWith("synth", r.Group, boxMesh, r.set(), shapedb.InsertOpts{ID: r.ID})
	return err
}

// firstSearches sends one query per core kind, which is when a node builds
// that kind's columns: set-up is not over until all four have answered.
func firstSearches(g *generator, url string) error {
	c := newClient()
	defer c.CloseIdleConnections()
	for i := range features.CoreKinds {
		body := g.vectorQuery("first", uint64(i)).body()
		if err := postJSON(c, url+"/api/search", body, http.StatusOK, nil); err != nil {
			return fmt.Errorf("first search: %w", err)
		}
	}
	return nil
}

// startLargeNode builds fixture B: an in-memory node holding the synthetic
// records, default server.Config (gate 256, cache 1024 entries, brownout
// on).
func startLargeNode(g *generator, rows []row) (*fixture, error) {
	f := &fixture{}
	start := time.Now()
	db, err := shapedb.Open("", coreOpts)
	if err != nil {
		return nil, err
	}
	f.onClose(func() { db.Close() })
	for i := range rows {
		if err := insertRow(db, &rows[i]); err != nil {
			f.Close()
			return nil, err
		}
	}
	f.eng = core.NewEngine(db)
	f.srv = server.New(f.eng)
	f.url = f.serve(f.eng, f.srv)
	if err := firstSearches(g, f.url); err != nil {
		f.Close()
		return nil, err
	}
	f.setup = time.Since(start)
	return f, nil
}

const clusterShards = 4

// startCluster builds fixture C: the same records placed by the ring on 4
// in-memory shard servers, plus a coordinator (policy as in bootCluster,
// hedging off).
func startCluster(g *generator, rows []row) (*fixture, error) {
	f := &fixture{}
	start := time.Now()
	ring, err := scatter.NewRing(clusterShards)
	if err != nil {
		return nil, err
	}
	dbs := make([]*shapedb.DB, clusterShards)
	for i := range dbs {
		if dbs[i], err = shapedb.Open("", coreOpts); err != nil {
			f.Close()
			return nil, err
		}
		db := dbs[i]
		f.onClose(func() { db.Close() })
	}
	for i := range rows {
		if err := insertRow(dbs[ring.Owner(rows[i].ID)], &rows[i]); err != nil {
			f.Close()
			return nil, err
		}
	}
	var specs []scatter.ShardSpec
	for i, db := range dbs {
		eng := core.NewEngine(db)
		srv := server.New(eng)
		if _, err := srv.SetShard(i, clusterShards); err != nil {
			f.Close()
			return nil, err
		}
		url := f.serve(eng, srv)
		f.shardURLs = append(f.shardURLs, url)
		specs = append(specs, scatter.ShardSpec{Endpoints: []string{url}})
	}
	f.coord, err = scatter.New(specs, scatter.Policy{
		Timeout:     2 * time.Second,
		Retries:     1,
		BackoffBase: time.Millisecond,
		BackoffCap:  2 * time.Millisecond,
		HedgeAfter:  -1,
		MergeMargin: 5 * time.Millisecond,
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	cdb, err := shapedb.Open("", coreOpts)
	if err != nil {
		f.Close()
		return nil, err
	}
	f.onClose(func() { cdb.Close() })
	ceng := core.NewEngine(cdb)
	f.srv = server.New(ceng).SetCoordinator(f.coord)
	f.url = f.serve(ceng, f.srv)
	if err := firstSearches(g, f.url); err != nil {
		f.Close()
		return nil, err
	}
	f.setup = time.Since(start)
	return f, nil
}

// setUp builds a fixture n times and keeps the last; the reported set-up
// time is the median, which a single noisy build would not be.
func setUp(n int, build func() (*fixture, error)) (*fixture, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		f, err := build()
		if err != nil {
			return nil, 0, err
		}
		times = append(times, f.setup.Seconds())
		if i == n-1 {
			return f, median(times), nil
		}
		f.Close()
	}
}
