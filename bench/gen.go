package main

import (
	"encoding/json"
	"fmt"
	"math"

	"threedess/internal/dataset"
	"threedess/internal/features"
	"threedess/internal/geom"
	"threedess/internal/server"
)

// corpusSeed fixes the 113-part corpus. The paper's corpus is one fixed set
// of parts; --seed drives everything a caller varies — poses, scales,
// request order, weights, the hot set and the synthetic records. A corpus
// per seed would move the median extraction cost by ~5 % between seeds
// (per-part cost spans 8–240 ms), which is the size of change the bounds
// are meant to catch.
const corpusSeed = 42

// vecDim is the concatenated dimension of the four core descriptors.
const vecDim = 3 + 5 + 3 + 8

var coreOpts = features.Options{}

// kindOffset returns where kind's dimensions start in a concatenated row.
func kindOffset(kind features.Kind) int {
	off := 0
	for _, k := range features.CoreKinds {
		if k == kind {
			return off
		}
		off += coreOpts.Dim(k)
	}
	panic(fmt.Sprintf("bench: %v is not a core kind", kind))
}

// generator turns a seed into every input the workloads send. Each request
// is a pure function of (seed, stream, index), so clients may draw indices
// in any interleaving and the oracle can regenerate any request.
type generator struct {
	seed    int64
	sz      sizes
	shapes  []dataset.Shape
	stride  int           // corpus walk step, coprime to len(shapes)
	centres [][]float64   // cluster centres of the synthetic records
	zipf    *zipf         // popularity of the hot set
	hotBody [][]byte      // the fixed search_hot requests
	hotReq  []vectorQuery // and their decoded form for the oracle
}

func newGenerator(seed int64, sz sizes) (*generator, error) {
	all, err := dataset.Generate(corpusSeed)
	if err != nil {
		return nil, err
	}
	g := &generator{seed: seed, sz: sz, shapes: all[:sz.shapes]}
	// Corpus order groups similar parts; a stride walk makes every run of
	// consecutive requests a representative mix of cheap and costly parts.
	g.stride = len(g.shapes)/3 + 1
	for gcd(g.stride, len(g.shapes)) != 1 {
		g.stride++
	}
	g.centres = make([][]float64, sz.clusters)
	for c := range g.centres {
		r := newRNG(seed, "centre", uint64(c))
		g.centres[c] = make([]float64, vecDim)
		for d := range g.centres[c] {
			g.centres[c][d] = r.float() * 10
		}
	}
	g.zipf = newZipf(sz.hot, 1.1)
	g.hotBody = make([][]byte, sz.hot)
	g.hotReq = make([]vectorQuery, sz.hot)
	for j := range g.hotBody {
		g.hotReq[j] = g.vectorQuery("hot", uint64(j))
		g.hotBody[j] = g.hotReq[j].body()
	}
	return g, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// shapeAt is the corpus walk: request i of any mesh-carrying stream uses
// this source part.
func (g *generator) shapeAt(i uint64) int {
	return int((i * uint64(g.stride)) % uint64(len(g.shapes)))
}

// posedOFF returns corpus part s under a seeded rigid transform and uniform
// scale, as OFF text. The result is a mesh no server has seen, so the
// request-hash result cache cannot hit, while the normalised part — and
// with it the extraction work — stays that of part s.
func (g *generator) posedOFF(stream string, i uint64, s int) string {
	r := newRNG(g.seed, stream, i)
	m := g.shapes[s].Mesh.Clone()
	m.ScaleUniform(0.5 + 1.5*r.float())
	axis := geom.V(r.norm(), r.norm(), r.norm())
	if axis.Len() < 1e-9 {
		axis = geom.V(0, 0, 1)
	}
	m.Transform(geom.Transform{
		R: geom.RotationAxisAngle(axis, r.float()*2*math.Pi),
		T: geom.V(r.norm()*20, r.norm()*20, r.norm()*20),
	})
	off, err := server.MeshToOFF(m)
	if err != nil {
		panic(err) // writing to a buffer cannot fail
	}
	return off
}

// qbeRequest is request i of the qbe_paper stream: unweighted 10-NN on
// principal moments (invariant under the pose) for a never-seen mesh.
func (g *generator) qbeRequest(i uint64) []byte {
	return mustJSON(map[string]any{
		"mesh_off": g.posedOFF("qbe", i, g.shapeAt(i)),
		"feature":  features.PrincipalMoments.String(),
		"k":        10,
	})
}

// insertRequest is insert j of a stream that walks the corpus.
func (g *generator) insertRequest(stream string, j uint64) []byte {
	return g.insertRequestOf(stream, j, g.shapeAt(j))
}

// insertRequestOf is insert j of a stream: a fresh pose of corpus part s,
// stored under that part's group.
func (g *generator) insertRequestOf(stream string, j uint64, s int) []byte {
	return mustJSON(map[string]any{
		"name":     fmt.Sprintf("%s-%d", stream, j),
		"group":    g.shapes[s].Group,
		"mesh_off": g.posedOFF(stream, j, s),
	})
}

// batchRequests returns the corpus as /api/shapes/batch bodies of 16. A
// single 113-shape batch holds one request for seconds and pushes the
// brownout latency EWMA past the slow-latency threshold, which would
// degrade the first measured searches.
func (g *generator) batchRequests() [][]byte {
	var out [][]byte
	for lo := 0; lo < len(g.shapes); lo += 16 {
		hi := min(lo+16, len(g.shapes))
		items := make([]server.BatchShape, 0, hi-lo)
		for _, s := range g.shapes[lo:hi] {
			off, err := server.MeshToOFF(s.Mesh)
			if err != nil {
				panic(err)
			}
			items = append(items, server.BatchShape{Name: s.Name, Group: s.Group, MeshOFF: off})
		}
		out = append(out, mustJSON(server.BatchInsertRequest{Shapes: items}))
	}
	return out
}

// idQuery is a weighted top-10 query by stored shape: one of ingest_mixed's
// hot (query, weights) pairs, or a member of its quality set.
type idQuery struct {
	ID      int64
	Kind    features.Kind
	Weights []float64
}

const hotPairs = 16

// randomWeights draws positive weights in [0.5, 1.5) for a vector of kind.
func randomWeights(r *rng, kind features.Kind) []float64 {
	w := make([]float64, coreOpts.Dim(kind))
	for d := range w {
		w[d] = 0.5 + r.float()
	}
	return w
}

// idQueries returns the 16 hot pairs: query ids spread over the corpus,
// the feature rotating over the four core kinds, random positive weights.
// scan_mode two-stage puts colstore on the path although the corpus is
// below the engine's auto threshold, so each commit forces a column
// refresh as well as a cache invalidation.
func (g *generator) idQueries() []idQuery {
	out := make([]idQuery, hotPairs)
	for j := range out {
		r := newRNG(g.seed, "pair", uint64(j))
		kind := features.CoreKinds[j%len(features.CoreKinds)]
		w := randomWeights(&r, kind)
		// Corpus ids are 1..n in load order.
		out[j] = idQuery{ID: int64(g.shapeAt(uint64(j)*5+uint64(r.intn(5)))) + 1, Kind: kind, Weights: w}
	}
	return out
}

// freshShare of ingest_mixed's reader ops are queries nobody sent before:
// a corpus part with weights of its own, which the result cache cannot
// hold. With the hot pairs alone the reader hits the cache 986 times in
// 1000 (one writer commits ~20 times a second, the reader answers ~20 000),
// and the gated p50 and p95 would both be cache-hit latencies. At this
// share the misses — decode, snapshot, the two-stage scan on columns a
// commit keeps invalidating, cache fill — are the slowest 11.5 % of the
// replies, so search_p95_ms sits in the middle of them, where a
// distribution is steadiest (at a share of 0.2 it sat at their 77th
// percentile and spread twice as wide between runs), while search_p50_ms
// stays a hit.
const freshShare = 0.1

// readerQuery is reader op i of ingest_mixed: one of the hot pairs (pair is
// its index) or a fresh query (pair is -1).
func (g *generator) readerQuery(pairs []idQuery, i uint64) (q idQuery, pair int) {
	r := newRNG(g.seed, "reader", i)
	if r.float() >= freshShare {
		pair = r.intn(len(pairs))
		return pairs[pair], pair
	}
	kind := features.CoreKinds[r.intn(len(features.CoreKinds))]
	return idQuery{ID: int64(r.intn(len(g.shapes))) + 1, Kind: kind, Weights: randomWeights(&r, kind)}, -1
}

// qualityQueries is the set ingest_mixed's recall is scored on: every
// grouped corpus part queried by id, features rotating, random positive
// weights. (The 16 hot pairs alone are too few: their mean recall moves by
// 15 % from seed to seed.)
func (g *generator) qualityQueries() []idQuery {
	var out []idQuery
	for s, shape := range g.shapes {
		if shape.Group == 0 {
			continue
		}
		r := newRNG(g.seed, "quality", uint64(s))
		kind := features.CoreKinds[s%len(features.CoreKinds)]
		out = append(out, idQuery{ID: int64(s) + 1, Kind: kind, Weights: randomWeights(&r, kind)})
	}
	return out
}

func (q idQuery) body() []byte {
	return mustJSON(map[string]any{
		"query_id": q.ID, "feature": q.Kind.String(), "k": 10,
		"weights": q.Weights, "scan_mode": "two-stage",
	})
}

// vectorQuery is a weighted top-10 query by resolved feature vector.
type vectorQuery struct {
	Kind    features.Kind
	Vector  []float64
	Weights []float64
	Cluster int // the cluster the query was drawn near; its group is Cluster+1
}

// vectorQuery builds query i of a stream: near a random cluster centre,
// random positive weights, the feature rotating over the core kinds.
func (g *generator) vectorQuery(stream string, i uint64) vectorQuery {
	r := newRNG(g.seed, stream, i)
	kind := features.CoreKinds[i%uint64(len(features.CoreKinds))]
	dim, off := coreOpts.Dim(kind), kindOffset(kind)
	c := r.intn(len(g.centres))
	q := vectorQuery{Kind: kind, Vector: make([]float64, dim), Weights: make([]float64, dim), Cluster: c}
	for d := 0; d < dim; d++ {
		q.Vector[d] = g.centres[c][off+d] + rowSigma*r.norm()
		q.Weights[d] = 0.5 + r.float()
	}
	return q
}

func (q vectorQuery) body() []byte {
	return mustJSON(map[string]any{
		"query_vector": q.Vector, "feature": q.Kind.String(), "k": 10, "weights": q.Weights,
	})
}

// scaled returns q with every weight multiplied by f: the same ranking and
// the same work under a different cache key.
func (q vectorQuery) scaled(f float64) vectorQuery {
	w := make([]float64, len(q.Weights))
	for d := range w {
		w[d] = q.Weights[d] * f
	}
	q.Weights = w
	return q
}

// scanRequest is request i of the search_scan / cluster_scan stream.
func (g *generator) scanRequest(i uint64) []byte { return g.vectorQuery("scan", i).body() }

// hotIndex picks which of the fixed hot requests op i sends.
func (g *generator) hotIndex(i uint64) int {
	r := newRNG(g.seed, "zipf", i)
	return g.zipf.rank(r.float())
}

// row is one synthetic record: all four core descriptors concatenated.
type row struct {
	ID    int64
	Group int // cluster+1, or 0 for the uniform-noise tenth
	Vec   [vecDim]float64
}

const (
	rowSigma   = 0.3 // spread of a cluster around its centre
	noiseShare = 0.1 // records drawn uniformly instead of from a cluster
)

// rows draws the synthetic corpus: Gaussian clusters plus uniform noise.
// Pruning efficiency of the two-stage scan depends on the distribution, so
// the records are clustered like real descriptor data, not an arithmetic
// ramp.
func (g *generator) rows() []row {
	out := make([]row, g.sz.rows)
	for i := range out {
		r := newRNG(g.seed, "row", uint64(i))
		out[i].ID = int64(i) + 1
		if r.float() < noiseShare {
			for d := range out[i].Vec {
				out[i].Vec[d] = r.float() * 10
			}
			continue
		}
		c := r.intn(len(g.centres))
		out[i].Group = c + 1
		for d := range out[i].Vec {
			out[i].Vec[d] = g.centres[c][d] + rowSigma*r.norm()
		}
	}
	return out
}

// set views a row as a feature set; the vectors alias the row.
func (r *row) set() features.Set {
	s := make(features.Set, len(features.CoreKinds))
	off := 0
	for _, k := range features.CoreKinds {
		dim := coreOpts.Dim(k)
		s[k] = features.Vector(r.Vec[off : off+dim])
		off += dim
	}
	return s
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only finite floats and strings are marshalled
	}
	return b
}
