package features

import (
	"math"
	"math/rand"
	"testing"

	"threedess/internal/geom"
)

func testMesh() *geom.Mesh {
	// Asymmetric L-shaped solid.
	m := geom.Box(geom.V(0, 0, 0), geom.V(4, 1, 1))
	m.Merge(geom.Box(geom.V(0, 1, 0), geom.V(1, 3, 1)))
	return m
}

func randomRigid(rng *rand.Rand) geom.Transform {
	axis := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
	for axis.Len() < 1e-6 {
		axis = geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
	}
	return geom.Transform{
		R: geom.RotationAxisAngle(axis, rng.Float64()*2*math.Pi),
		T: geom.V(rng.NormFloat64()*5, rng.NormFloat64()*5, rng.NormFloat64()*5),
	}
}

func vecNear(a, b Vector, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol*(1+math.Abs(a[i])) {
			return false
		}
	}
	return true
}

func TestKindStringsRoundTrip(t *testing.T) {
	for _, k := range AllKinds {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if got != k {
			t.Errorf("round trip %v -> %v", k, got)
		}
	}
	if _, err := ParseKind("nonsense"); err == nil {
		t.Error("ParseKind accepted nonsense")
	}
	if Kind(99).Valid() {
		t.Error("Kind(99) valid")
	}
	if Kind(99).String() == "" {
		t.Error("Kind(99) String empty")
	}
}

func TestExtractDimensions(t *testing.T) {
	e := NewExtractor(Options{})
	set, err := e.ExtractAll(testMesh())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range AllKinds {
		v, ok := set[k]
		if !ok {
			t.Fatalf("missing kind %v", k)
		}
		if len(v) != e.Options().Dim(k) {
			t.Errorf("%v: dim %d, want %d", k, len(v), e.Options().Dim(k))
		}
		for i, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Errorf("%v[%d] = %v", k, i, x)
			}
		}
	}
}

func TestExtractSubset(t *testing.T) {
	e := NewExtractor(Options{})
	set, err := e.Extract(testMesh(), []Kind{PrincipalMoments})
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 {
		t.Errorf("set has %d kinds, want 1", len(set))
	}
	if _, ok := set[PrincipalMoments]; !ok {
		t.Error("requested kind missing")
	}
	empty, err := e.Extract(testMesh(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Errorf("nil kinds produced %d entries", len(empty))
	}
	if _, err := e.Extract(testMesh(), []Kind{Kind(42)}); err == nil {
		t.Error("invalid kind accepted")
	}
}

func TestExtractDoesNotModifyInput(t *testing.T) {
	m := testMesh()
	v0 := m.Vertices[0]
	vol := m.Volume()
	e := NewExtractor(Options{})
	if _, err := e.ExtractAll(m); err != nil {
		t.Fatal(err)
	}
	if m.Vertices[0] != v0 || m.Volume() != vol {
		t.Error("Extract modified the input mesh")
	}
}

func TestRigidInvarianceOfDescriptors(t *testing.T) {
	e := NewExtractor(Options{})
	base := testMesh()
	ref, err := e.Extract(base, []Kind{MomentInvariants, PrincipalMoments, GeometricParams, HigherOrder})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(100))
	for i := 0; i < 10; i++ {
		m := base.Clone()
		m.Transform(randomRigid(rng))
		got, err := e.Extract(m, []Kind{MomentInvariants, PrincipalMoments, GeometricParams, HigherOrder})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []Kind{MomentInvariants, PrincipalMoments, GeometricParams, HigherOrder} {
			if !vecNear(ref[k], got[k], 1e-5) {
				t.Fatalf("%v changed under rigid motion:\n  ref %v\n  got %v", k, ref[k], got[k])
			}
		}
	}
}

func TestScaleBehaviour(t *testing.T) {
	e := NewExtractor(Options{})
	base := testMesh()
	ref, err := e.Extract(base, []Kind{MomentInvariants, PrincipalMoments, GeometricParams})
	if err != nil {
		t.Fatal(err)
	}
	scaled := base.Clone().ScaleUniform(2.5)
	got, err := e.Extract(scaled, []Kind{MomentInvariants, PrincipalMoments, GeometricParams})
	if err != nil {
		t.Fatal(err)
	}
	// Moment invariants and principal moments (of the normalized model)
	// are scale invariant.
	if !vecNear(ref[MomentInvariants], got[MomentInvariants], 1e-6) {
		t.Errorf("moment invariants changed under scaling")
	}
	if !vecNear(ref[PrincipalMoments], got[PrincipalMoments], 1e-6) {
		t.Errorf("principal moments changed under scaling")
	}
	// Geometric params: ratios (dims 0-2) invariant, scale/volume (3-4)
	// must change.
	for d := 0; d < 3; d++ {
		if math.Abs(ref[GeometricParams][d]-got[GeometricParams][d]) > 1e-6*(1+math.Abs(ref[GeometricParams][d])) {
			t.Errorf("geometric ratio dim %d changed under scaling", d)
		}
	}
	if math.Abs(ref[GeometricParams][4]-got[GeometricParams][4]) < 0.1 {
		t.Errorf("volume dim did not change under scaling: %v vs %v",
			ref[GeometricParams][4], got[GeometricParams][4])
	}
}

func TestPrincipalMomentsDescending(t *testing.T) {
	e := NewExtractor(Options{})
	set, err := e.Extract(testMesh(), []Kind{PrincipalMoments})
	if err != nil {
		t.Fatal(err)
	}
	pm := set[PrincipalMoments]
	if pm[0] < pm[1] || pm[1] < pm[2] {
		t.Errorf("principal moments not descending: %v", pm)
	}
	if pm[2] <= 0 {
		t.Errorf("principal moments must be positive for a solid: %v", pm)
	}
}

func TestEigenvaluesDistinguishTopology(t *testing.T) {
	e := NewExtractor(Options{})
	torus, err := geom.Torus(3, 1, 48, 24)
	if err != nil {
		t.Fatal(err)
	}
	bar := geom.Box(geom.V(0, 0, 0), geom.V(10, 1, 1))
	st, err := e.Extract(torus, []Kind{Eigenvalues})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := e.Extract(bar, []Kind{Eigenvalues})
	if err != nil {
		t.Fatal(err)
	}
	if vecNear(st[Eigenvalues], sb[Eigenvalues], 1e-9) {
		t.Errorf("torus and bar eigenvalue signatures identical: %v", st[Eigenvalues])
	}
}

func TestExtractionDeterministic(t *testing.T) {
	e := NewExtractor(Options{})
	a, err := e.ExtractAll(testMesh())
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.ExtractAll(testMesh())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range AllKinds {
		if !vecNear(a[k], b[k], 0) {
			t.Errorf("%v not deterministic: %v vs %v", k, a[k], b[k])
		}
	}
}

func TestExtractErrorsOnOpenMesh(t *testing.T) {
	open := geom.NewMesh(0, 0)
	open.AddVertex(geom.V(0, 0, 0))
	open.AddVertex(geom.V(1, 0, 0))
	open.AddVertex(geom.V(0, 1, 0))
	open.AddFace(0, 1, 2)
	e := NewExtractor(Options{})
	if _, err := e.Extract(open, CoreKinds); err == nil {
		t.Error("open mesh accepted")
	}
	inverted := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1)).FlipFaces()
	if _, err := e.Extract(inverted, CoreKinds); err == nil {
		t.Error("inverted mesh accepted")
	}
}

func TestSetClone(t *testing.T) {
	s := Set{PrincipalMoments: Vector{1, 2, 3}}
	c := s.Clone()
	c[PrincipalMoments][0] = 99
	if s[PrincipalMoments][0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	d := DefaultOptions()
	if o != d {
		t.Errorf("withDefaults = %+v, want %+v", o, d)
	}
	custom := Options{VoxelResolution: 64}.withDefaults()
	if custom.VoxelResolution != 64 || custom.EigenDim != d.EigenDim {
		t.Errorf("partial defaults wrong: %+v", custom)
	}
	if (Options{}).Dim(Kind(77)) != 0 {
		t.Error("unknown kind Dim != 0")
	}
}

func TestShapeDistributionProperties(t *testing.T) {
	e := NewExtractor(Options{D2Samples: 512, D2Bins: 8})
	set, err := e.Extract(testMesh(), []Kind{ShapeDistribution})
	if err != nil {
		t.Fatal(err)
	}
	h := set[ShapeDistribution]
	if len(h) != 8 {
		t.Fatalf("bins = %d", len(h))
	}
	sum := 0.0
	for _, v := range h {
		if v < 0 {
			t.Fatalf("negative bin in %v", h)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("histogram sum = %v", sum)
	}
}

// TestExtractOverlapMatchesSerial asserts that extracting every kind
// together produces bit-identical vectors to extracting each kind alone,
// for every descriptor.
func TestExtractOverlapMatchesSerial(t *testing.T) {
	ext := NewExtractor(Options{})
	m := geom.Box(geom.V(0, 0, 0), geom.V(4, 1, 1))
	m.Merge(geom.Box(geom.V(0, 1, 0), geom.V(1, 3, 1)))
	all, err := ext.Extract(m, AllKinds)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range AllKinds {
		solo, err := ext.Extract(m, []Kind{k})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if len(all[k]) != len(solo[k]) {
			t.Fatalf("%v: together dim %d, alone dim %d", k, len(all[k]), len(solo[k]))
		}
		for i := range solo[k] {
			if all[k][i] != solo[k][i] {
				t.Errorf("%v[%d]: together %v != alone %v", k, i, all[k][i], solo[k][i])
			}
		}
	}
}

func TestOptionsWorkersDefault(t *testing.T) {
	ext := NewExtractor(Options{Workers: 7})
	if got := ext.Options().Workers; got != 7 {
		t.Errorf("Workers = %d, want 7", got)
	}
	if got := NewExtractor(Options{}).Options().Workers; got != 0 {
		t.Errorf("zero Workers resolved to %d, want 0 (runtime default)", got)
	}
}
