package geom

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// The parser fuzz targets prove the untrusted-input contract of the mesh
// readers: on arbitrary bytes they never panic, never retain more geometry
// than the configured ReadLimits allow, and every mesh they do return
// passes structural validation for index range and finiteness.

// fuzzLimits are deliberately tiny so the fuzzer can reach every cap
// quickly and an accidental unbounded allocation fails fast.
var fuzzLimits = ReadLimits{
	MaxVertices:   4096,
	MaxTriangles:  8192,
	MaxFaceDegree: 16,
	MaxTokenBytes: 1 << 14,
}

// checkParsed asserts the post-conditions shared by all three readers.
func checkParsed(t *testing.T, m *Mesh, lim ReadLimits) {
	t.Helper()
	if m == nil {
		t.Fatal("nil mesh with nil error")
	}
	if len(m.Vertices) > lim.MaxVertices {
		t.Fatalf("%d vertices exceeds cap %d", len(m.Vertices), lim.MaxVertices)
	}
	if len(m.Faces) > lim.MaxTriangles {
		t.Fatalf("%d triangles exceeds cap %d", len(m.Faces), lim.MaxTriangles)
	}
	for i, v := range m.Vertices {
		if !v.IsFinite() {
			t.Fatalf("vertex %d is not finite: %v", i, v)
		}
	}
	for i, f := range m.Faces {
		for _, idx := range f {
			if idx < 0 || idx >= len(m.Vertices) {
				t.Fatalf("face %d references vertex %d of %d", i, idx, len(m.Vertices))
			}
		}
	}
}

// seedMeshOFF serializes a few real solids so the fuzzer starts from
// well-formed inputs (the examples/ corpora are built from these same
// primitive generators).
func seedMeshes() []*Mesh {
	return []*Mesh{
		Box(V(0, 0, 0), V(2, 1, 1)),
		Cylinder(0.5, 2, 12),
		Sphere(1, 6, 8),
	}
}

func FuzzReadOFF(f *testing.F) {
	for _, m := range seedMeshes() {
		var buf bytes.Buffer
		if err := WriteOFF(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"))
	f.Add([]byte("OFF\n1000000000 1000000000 0\n"))
	f.Add([]byte("OFF\n3 1 0\n0 0 nan\n1 0 0\n0 1 0\n3 0 1 2\n"))
	f.Add([]byte("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n"))
	f.Add([]byte("# comment only"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadOFFLimits(bytes.NewReader(data), fuzzLimits)
		if err != nil {
			return
		}
		checkParsed(t, m, fuzzLimits)
	})
}

func FuzzReadOBJ(f *testing.F) {
	for _, m := range seedMeshes() {
		var buf bytes.Buffer
		if err := WriteOBJ(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"))
	f.Add([]byte("v 0 0 inf\n"))
	f.Add([]byte("f 1/2/3 -1 4\n"))
	f.Add([]byte(strings.Repeat("v 0 0 0\n", 64)))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadOBJLimits(bytes.NewReader(data), fuzzLimits)
		if err != nil {
			return
		}
		checkParsed(t, m, fuzzLimits)
	})
}

func FuzzReadSTL(f *testing.F) {
	for _, m := range seedMeshes() {
		var buf bytes.Buffer
		if err := WriteSTLBinary(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("solid x\nfacet normal 0 0 1\nouter loop\nvertex 0 0 0\nvertex 1 0 0\nvertex 0 1 0\nendloop\nendfacet\nendsolid x\n"))
	// Binary header claiming far more triangles than the body carries.
	claim := make([]byte, 84)
	claim[80], claim[81], claim[82], claim[83] = 0xff, 0xff, 0xff, 0x7f
	f.Add(claim)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadSTLLimits(bytes.NewReader(data), fuzzLimits)
		if err != nil {
			return
		}
		checkParsed(t, m, fuzzLimits)
	})
}

// TestReadLimitsEnforced drives each documented cap with a crafted input
// and asserts the reader errors instead of allocating.
func TestReadLimitsEnforced(t *testing.T) {
	lim := ReadLimits{MaxVertices: 8, MaxTriangles: 8, MaxFaceDegree: 4, MaxTokenBytes: 64}
	cases := []struct {
		name string
		run  func() (*Mesh, error)
	}{
		{"off vertex bomb", func() (*Mesh, error) {
			return ReadOFFLimits(strings.NewReader("OFF\n2000000000 1 0\n"), lim)
		}},
		{"off face bomb", func() (*Mesh, error) {
			return ReadOFFLimits(strings.NewReader("OFF\n3 2000000000 0\n"), lim)
		}},
		{"off face degree", func() (*Mesh, error) {
			return ReadOFFLimits(strings.NewReader(
				"OFF\n5 1 0\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n.5 .5 1\n5 0 1 2 3 4\n"), lim)
		}},
		{"off huge token", func() (*Mesh, error) {
			return ReadOFFLimits(strings.NewReader("OFF\n1 0 0\n"+strings.Repeat("9", 1024)+" 0 0\n"), lim)
		}},
		{"off unterminated comment", func() (*Mesh, error) {
			return ReadOFFLimits(strings.NewReader("#"+strings.Repeat("x", 1024)), lim)
		}},
		{"off nan vertex", func() (*Mesh, error) {
			return ReadOFFLimits(strings.NewReader("OFF\n3 1 0\n0 0 NaN\n1 0 0\n0 1 0\n3 0 1 2\n"), lim)
		}},
		{"obj vertex bomb", func() (*Mesh, error) {
			return ReadOBJLimits(strings.NewReader(strings.Repeat("v 0 0 0\n", 9)), lim)
		}},
		{"obj face degree", func() (*Mesh, error) {
			return ReadOBJLimits(strings.NewReader("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3 1 2 3\n"), lim)
		}},
		{"obj inf vertex", func() (*Mesh, error) {
			return ReadOBJLimits(strings.NewReader("v 0 0 Inf\n"), lim)
		}},
		{"stl ascii vertex bomb", func() (*Mesh, error) {
			var b strings.Builder
			b.WriteString("solid x\nfacet\n")
			for i := 0; i < 30; i++ {
				b.WriteString("vertex 0 0 0\n")
			}
			return ReadSTLLimits(strings.NewReader(b.String()), lim)
		}},
		{"stl binary triangle bomb", func() (*Mesh, error) {
			data := make([]byte, 84)
			data[80], data[81] = 0xff, 0xff // 65535 > MaxTriangles
			return ReadSTLLimits(bytes.NewReader(data), lim)
		}},
	}
	for _, tc := range cases {
		if _, err := tc.run(); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// TestBinarySTLPreallocClamped feeds a header that declares the maximum
// tolerated triangle count but carries no payload; the reader must fail on
// the missing body without having reserved gigabytes for the claim.
func TestBinarySTLPreallocClamped(t *testing.T) {
	data := make([]byte, 84)
	// 50M triangles: passes the count guard under default limits, then
	// must hit EOF on triangle 0.
	count := uint32(50_000_000)
	data[80] = byte(count)
	data[81] = byte(count >> 8)
	data[82] = byte(count >> 16)
	data[83] = byte(count >> 24)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := ReadSTL(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("expected error for truncated binary STL")
	}
	// The old reader preallocated count*3 vertices (3.6 GB) before reading
	// anything; the clamped reader reserves at most maxPrealloc entries.
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 64<<20 {
		t.Errorf("parsing a truncated 50M-triangle claim allocated %d bytes", grown)
	}
}

// TestDefaultLimitsRoundTrip ensures the default caps don't reject real
// meshes written by our own writers.
func TestDefaultLimitsRoundTrip(t *testing.T) {
	for _, m := range seedMeshes() {
		var off, obj, stl bytes.Buffer
		if err := WriteOFF(&off, m); err != nil {
			t.Fatal(err)
		}
		if err := WriteOBJ(&obj, m); err != nil {
			t.Fatal(err)
		}
		if err := WriteSTLBinary(&stl, m); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadOFF(&off); err != nil {
			t.Errorf("OFF round-trip: %v", err)
		}
		if _, err := ReadOBJ(&obj); err != nil {
			t.Errorf("OBJ round-trip: %v", err)
		}
		if _, err := ReadSTL(&stl); err != nil {
			t.Errorf("STL round-trip: %v", err)
		}
	}
}
