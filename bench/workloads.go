package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"threedess/internal/features"
	"threedess/internal/geom"
	"threedess/internal/server"
	"threedess/internal/shapedb"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports. Info holds the informational numbers
// (sample counts, supported tail percentile, header shares) that are
// printed but not gated.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Info      map[string]float64     `json:"-"`
	Notes     []string               `json:"-"`
}

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	sz       sizes
	tmpRoot  string // where the durable node keeps its journal
}

// clientCount is C: closed-loop clients per workload.
func clientCount() int { return min(runtime.NumCPU(), 4) }

// buildFixture builds the workload's fixture cfg.sz.setups times.
func buildFixture(cfg runConfig, g *generator, rows []row, setups int) (*fixture, float64, error) {
	switch cfg.workload {
	case "qbe_paper", "ingest_mixed":
		return setUp(setups, func() (*fixture, error) { return startPaperNode(g, cfg.tmpRoot) })
	case "search_scan", "search_hot":
		return setUp(setups, func() (*fixture, error) { return startLargeNode(g, rows) })
	default:
		return setUp(setups, func() (*fixture, error) { return startCluster(g, rows) })
	}
}

func needsRows(workload string) bool {
	return workload == "search_scan" || workload == "search_hot" || workload == "cluster_scan"
}

// rolesFor returns the workload's client roles: the search role, then the
// insert role if the workload has one.
func rolesFor(workload string, g *generator) []*role {
	c := clientCount()
	switch workload {
	case "qbe_paper":
		return []*role{{clients: c, period: len(g.shapes), op: func(i uint64) op {
			return op{kind: opSearch, body: g.qbeRequest(i), keep: i < uint64(len(g.shapes))}
		}}}
	case "ingest_mixed":
		pairs := g.idQueries()
		bodies := make([][]byte, len(pairs))
		for j, p := range pairs {
			bodies[j] = p.body()
		}
		return []*role{
			{clients: max(1, c-1), op: func(i uint64) op {
				q, pair := g.readerQuery(pairs, i)
				if pair >= 0 {
					return op{kind: opSearch, body: bodies[pair]}
				}
				return op{kind: opSearch, body: q.body()}
			}},
			{clients: 1, period: len(g.shapes), op: func(j uint64) op {
				return op{kind: opInsert, body: g.insertRequest("ingest", j)}
			}},
		}
	case "search_hot":
		return []*role{{clients: c, op: func(i uint64) op {
			return op{kind: opSearch, body: g.hotBody[g.hotIndex(i)]}
		}}}
	default: // search_scan, cluster_scan: the same stream
		return []*role{{clients: c, op: func(i uint64) op {
			return op{kind: opSearch, body: g.scanRequest(i), keep: i < scanQualityN}
		}}}
	}
}

// scanQualityN is how many of the first scan replies recall_at_10 is scored
// on: a set fixed per seed, however fast the run.
const scanQualityN = 1024

// runUntraced measures one workload end to end.
func runUntraced(cfg runConfig) (*result, error) {
	g, err := newGenerator(cfg.seed, cfg.sz)
	if err != nil {
		return nil, err
	}
	var rows []row
	if needsRows(cfg.workload) {
		rows = g.rows()
	}
	fx, setup, err := buildFixture(cfg, g, rows, cfg.sz.setups)
	if err != nil {
		return nil, err
	}
	defer fx.Close()

	res := &result{Metrics: map[string]metricValue{}, Info: map[string]float64{}}
	chk := &checker{}
	ref := newReference(fx, rows)
	quality := prePass(cfg.workload, fx, g, ref, chk)

	// Live heap of the loaded fixture, before any client starts: what the
	// process holds then (records, R-trees, columns, the generator's own
	// inputs) does not depend on how many ops the window will complete.
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)

	// Warm-up (caches fill, columns built, pressure EWMA settled), then the
	// measured window, without stopping the clients in between.
	warm := time.Duration(cfg.sz.warmMS) * time.Millisecond
	window := time.Duration(cfg.seconds * float64(time.Second))
	roles := rolesFor(cfg.workload, g)
	var acked atomic.Int64
	acked.Store(int64(len(g.shapes)))
	load := runLoad(fx.url, roles, warm+window, &acked)
	search := summarise(load.samples, opSearch, warm, warm+window, roles[0].period)
	res.Notes = append(res.Notes, load.errs...)

	quality = append(quality, verifyKept(cfg.workload, load.kept, g, ref, chk)...)

	// Inserts: ingest_mixed measures them under read load inside the
	// window; the read-only workloads close with a short insert burst
	// through the same front door, so the write path of every fixture
	// (durable node, in-memory node, coordinator routing) has a number.
	// Every op a client sent counts, warm-up included: a failure there is a
	// failure of the system too.
	attempted, failed := len(load.samples), 0
	for _, s := range load.samples {
		if s.failed {
			failed++
		}
	}
	var insert opStats
	if cfg.workload == "ingest_mixed" {
		insert = summarise(load.samples, opInsert, warm, warm+window, roles[1].period)
		err := checkReopen(fx.dir, cfg.tmpRoot, load.acked)
		chk.check(err == nil, "reopen: %v", err)
		res.Info["journal_bytes_per_shape"] = float64(journalSize(fx.dir)-fx.corpusJournal) / float64(max(1, len(load.acked)))
	} else {
		var tailFailed int
		insert, tailFailed = insertTail(fx.url, g, cfg.sz.tail, chk)
		attempted, failed = attempted+insert.count, failed+tailFailed
	}

	res.Attempted = attempted + chk.attempted
	res.Failed = failed + chk.failed
	res.Correct = res.Failed == 0
	res.Notes = append(res.Notes, chk.notes...)

	set := func(name string, v float64) {
		for _, m := range endToEnd {
			if m.Name == name {
				res.Metrics[name] = metricValue{Value: v, Unit: m.Unit}
				return
			}
		}
		panic("bench: unknown end-to-end metric " + name)
	}
	set("setup_s", setup)
	set("search_qps", search.perSec)
	set("search_p50_ms", search.p50)
	set("search_p95_ms", search.p95)
	set("insert_per_s", insert.perSec)
	set("insert_p50_ms", insert.p50)
	set("recall_at_10", mean(quality))
	set("heap_live_mb", float64(ms.HeapAlloc)/(1<<20))

	res.Info["search_samples"] = float64(search.count)
	res.Info["search_tail_percentile"] = search.tailP
	res.Info["search_tail_ms"] = search.tailValue
	res.Info["search_miss_p50_ms"] = search.missP50
	res.Info["insert_samples"] = float64(insert.count)
	res.Info["insert_p95_ms"] = insert.p95
	res.Info["insert_tail_percentile"] = insert.tailP
	res.Info["insert_tail_ms"] = insert.tailValue
	res.Info["qcache_hit_share"] = share(search.hits, search.count)
	res.Info["degraded_share"] = share(search.degraded, search.count)
	res.Info["shed_share"] = share(search.shed, search.count)
	res.Info["quality_set"] = float64(len(quality))
	res.Info["reference_checks"] = float64(chk.attempted)
	res.Info["failed_share"] = share(res.Failed, res.Attempted)
	return res, nil
}

// prePass runs the deterministic requests a workload sends before the
// clock starts, checks them against the reference, and returns the recall
// of each answer that belongs to the workload's quality set.
func prePass(workload string, fx *fixture, g *generator, ref *reference, chk *checker) (quality []float64) {
	client := newClient()
	defer client.CloseIdleConnections()
	var buf bytes.Buffer
	switch workload {
	case "ingest_mixed":
		// The quality set against the pristine corpus, then the 16 hot pairs
		// (so the window starts with them cached, as a long-running node
		// would have them).
		queries := g.qualityQueries()
		scored := len(queries)
		for j, p := range append(queries, g.idQueries()...) {
			r := post(client, fx.url+"/api/search", p.body(), &buf)
			chk.check(!r.failed(opSearch), "query by id %d: %v", j, r)
			if r.failed(opSearch) {
				continue
			}
			got := chk.checkAnswer(fmt.Sprintf("query by id %d", j), r.body, ref.byID(p, int64(len(g.shapes))))
			// The query shape itself is excluded from its own answer.
			if grp := g.shapes[p.ID-1].Group; j < scored && groupSize(g, grp) > 1 {
				quality = append(quality, recall(got, grp, groupSize(g, grp)-1))
			}
		}
	case "search_hot":
		// Pre-warm: every hot request once, so the window starts with the
		// whole set cached. The replies are the quality set.
		for j, body := range g.hotBody {
			r := post(client, fx.url+"/api/search", body, &buf)
			chk.check(!r.failed(opSearch), "hot request %d: %v", j, r)
			if r.failed(opSearch) {
				continue
			}
			got := chk.checkAnswer(fmt.Sprintf("hot request %d", j), r.body, ref.byVector(g.hotReq[j]))
			quality = append(quality, recall(got, g.hotReq[j].Cluster+1, 10))
		}
	}
	return quality
}

// verifyKept compares the sampled replies of the window with the reference
// and returns the recall of each reply that belongs to the quality set.
func verifyKept(workload string, keeps []kept, g *generator, ref *reference, chk *checker) (quality []float64) {
	pairs := g.idQueries()
	for _, k := range keeps {
		switch workload {
		case "qbe_paper":
			s := g.shapeAt(k.index)
			var got []server.SearchResult
			if k.check {
				want, err := ref.byExample(g.posedOFF("qbe", k.index, s))
				chk.check(err == nil, "qbe %d: reference: %v", k.index, err)
				got = chk.checkAnswer(fmt.Sprintf("qbe %d", k.index), k.body, want)
			} else {
				got, _ = decodeAnswer(k.body)
			}
			if grp := g.shapes[s].Group; grp != 0 && k.index < uint64(len(g.shapes)) {
				quality = append(quality, recall(got, grp, groupSize(g, grp)))
			}
		case "ingest_mixed":
			p, _ := g.readerQuery(pairs, k.index)
			got, err := decodeAnswer(k.body)
			ok := false
			for m := k.lo; err == nil && m <= k.hi+1 && !ok; m++ {
				ok = sameAnswer(got, ref.byID(p, m))
			}
			chk.check(ok, "reader %d: answer %v matches no corpus state in [%d, %d]", k.index, got, k.lo, k.hi+1)
		case "search_hot":
			chk.checkAnswer(fmt.Sprintf("hot %d", k.index), k.body, ref.byVector(g.hotReq[g.hotIndex(k.index)]))
		default:
			q := g.vectorQuery("scan", k.index)
			var got []server.SearchResult
			if k.check {
				got = chk.checkAnswer(fmt.Sprintf("scan %d", k.index), k.body, ref.byVector(q))
			} else {
				got, _ = decodeAnswer(k.body)
			}
			if k.index < scanQualityN {
				quality = append(quality, recall(got, q.Cluster+1, 10))
			}
		}
	}
	return quality
}

func share(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// groupSize counts the loaded corpus members of a group.
func groupSize(g *generator, group int) int {
	n := 0
	for _, s := range g.shapes {
		if s.Group == group {
			n++
		}
	}
	return n
}

// insertTail sends n single inserts, one client, closed loop: fresh poses
// of three corpus parts in turn, the same three for every seed. Three
// parts, not a walk: the median of 24 different parts sits wherever two
// neighbouring costs happen to lie, and moved by 10 % between runs.
func insertTail(url string, g *generator, n int, chk *checker) (st opStats, failed int) {
	client := newClient()
	defer client.CloseIdleConnections()
	var (
		buf bytes.Buffer
		lat []float64
	)
	start := time.Now()
	for j := 0; j < n; j++ {
		body := g.insertRequestOf("tail", uint64(j), g.shapeAt(uint64(j%3)))
		t0 := time.Now()
		r := post(client, url+"/api/shapes", body, &buf)
		lat = append(lat, float64(time.Since(t0))/float64(time.Millisecond))
		st.count++
		if _, ok := insertAck(r.body); r.failed(opInsert) || !ok {
			failed++
			chk.notes = append(chk.notes, fmt.Sprintf("tail insert %d: %v", j, r))
		}
	}
	st.perSec = float64(n) / time.Since(start).Seconds()
	st.p50 = median(lat)
	return st, failed
}

const journalFile = "shapes.journal"

func journalSize(dir string) int64 {
	fi, err := os.Stat(filepath.Join(dir, journalFile))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// checkReopen is the durability check: the journal bytes on disk right
// now — copied aside while the serving handle is still open, so nothing a
// Close might flush is counted — must replay to every acknowledged id.
func checkReopen(dir, tmpRoot string, acked []int64) error {
	copyDir, err := os.MkdirTemp(tmpRoot, "reopen-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(copyDir)
	src, err := os.Open(filepath.Join(dir, journalFile))
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.Create(filepath.Join(copyDir, journalFile))
	if err != nil {
		return err
	}
	if _, err := io.Copy(dst, src); err != nil {
		dst.Close()
		return err
	}
	if err := dst.Close(); err != nil {
		return err
	}
	db, err := shapedb.Open(copyDir, coreOpts)
	if err != nil {
		return err
	}
	defer db.Close()
	if rep := db.Recovery(); rep != nil && rep.Degraded() {
		return fmt.Errorf("journal replay discarded bytes: %+v", *rep)
	}
	for _, id := range acked {
		if _, ok := db.Get(id); !ok {
			return fmt.Errorf("acknowledged id %d is missing after reopen", id)
		}
	}
	return nil
}

// reference answers queries by brute force over what a fixture stores.
type reference struct {
	fx   *fixture
	rows []row
	ext  *features.Extractor
	// Per-kind views are built on first use and cached: the synthetic rows
	// never change, and the durable node is only read after its writers
	// have stopped.
	byKind map[features.Kind][]refRow
	dmax   map[features.Kind]float64
}

func newReference(fx *fixture, rows []row) *reference {
	return &reference{fx: fx, rows: rows, ext: features.NewExtractor(coreOpts), byKind: map[features.Kind][]refRow{}, dmax: map[features.Kind]float64{}}
}

// rowsOf returns every stored shape's vector of one kind, ascending by id.
func (r *reference) rowsOf(kind features.Kind) []refRow {
	if out, ok := r.byKind[kind]; ok {
		return out
	}
	var out []refRow
	if r.rows != nil {
		dim, off := coreOpts.Dim(kind), kindOffset(kind)
		for i := range r.rows {
			out = append(out, refRow{ID: r.rows[i].ID, Name: "synth", Group: r.rows[i].Group, Vec: r.rows[i].Vec[off : off+dim]})
		}
		r.byKind[kind] = out
		return out
	}
	// Not cached: the durable node grows between the calls.
	for _, rec := range r.fx.eng.DB().Snapshot() {
		if v, ok := rec.Features[kind]; ok {
			out = append(out, refRow{ID: rec.ID, Name: rec.Name, Group: rec.Group, Vec: v})
		}
	}
	return out
}

// byVector answers a vector query over the synthetic rows.
func (r *reference) byVector(q vectorQuery) []server.SearchResult {
	rows := r.rowsOf(q.Kind)
	if _, ok := r.dmax[q.Kind]; !ok {
		r.dmax[q.Kind] = dmaxOf(rows)
	}
	return bruteForce(rows, q.Vector, q.Weights, 10, 0, r.dmax[q.Kind])
}

// byID answers a query-by-id as of the moment ids 1..upTo were stored.
func (r *reference) byID(q idQuery, upTo int64) []server.SearchResult {
	rows := r.rowsOf(q.Kind)
	n := 0
	for n < len(rows) && rows[n].ID <= upTo {
		n++
	}
	rows = rows[:n]
	var vec []float64
	for _, row := range rows {
		if row.ID == q.ID {
			vec = row.Vec
		}
	}
	if vec == nil {
		return nil
	}
	return bruteForce(rows, vec, q.Weights, 10, q.ID, dmaxOf(rows))
}

// byExample answers an unweighted principal-moments query for an uploaded
// mesh. Only that descriptor is extracted: it does not depend on the
// skeleton branch, so the vector is the one the server derived.
func (r *reference) byExample(off string) ([]server.SearchResult, error) {
	mesh, err := geom.ReadOFF(strings.NewReader(off))
	if err != nil {
		return nil, err
	}
	set, err := r.ext.Extract(mesh, []features.Kind{features.PrincipalMoments})
	if err != nil {
		return nil, err
	}
	rows := r.rowsOf(features.PrincipalMoments)
	return bruteForce(rows, set[features.PrincipalMoments], nil, 10, 0, dmaxOf(rows)), nil
}
