package geom

import (
	"fmt"
	"math"
	"sort"
)

// Vec2 is a 2-component vector used by the polygon/triangulation utilities
// that back the extrusion primitives.
type Vec2 struct {
	X, Y float64
}

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Scale returns v scaled by s.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{v.X * s, v.Y * s} }

// Dot returns the dot product.
func (v Vec2) Dot(w Vec2) float64 { return v.X*w.X + v.Y*w.Y }

// Cross returns the 2D cross product (z-component of the 3D cross).
func (v Vec2) Cross(w Vec2) float64 { return v.X*w.Y - v.Y*w.X }

// Len returns the Euclidean norm.
func (v Vec2) Len() float64 { return math.Hypot(v.X, v.Y) }

// Polygon is a closed 2D loop given by its vertices in order (no repeated
// final vertex).
type Polygon []Vec2

// SignedArea returns the signed area of p (positive when counter-clockwise).
func (p Polygon) SignedArea() float64 {
	a := 0.0
	for i := range p {
		j := (i + 1) % len(p)
		a += p[i].Cross(p[j])
	}
	return a / 2
}

// Reverse reverses vertex order in place and returns p.
func (p Polygon) Reverse() Polygon {
	for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Contains reports whether the point q lies strictly inside p (crossing
// parity test; boundary points are unspecified).
func (p Polygon) Contains(q Vec2) bool {
	in := false
	for i := range p {
		j := (i + 1) % len(p)
		a, b := p[i], p[j]
		if (a.Y > q.Y) != (b.Y > q.Y) {
			xc := a.X + (q.Y-a.Y)/(b.Y-a.Y)*(b.X-a.X)
			if q.X < xc {
				in = !in
			}
		}
	}
	return in
}

// Poly builds a Polygon from a flat list of x, y coordinate pairs:
// Poly(x0, y0, x1, y1, …). It panics on an odd number of values.
func Poly(coords ...float64) Polygon {
	if len(coords)%2 != 0 {
		panic(fmt.Sprintf("geom: Poly needs x,y pairs, got %d values", len(coords)))
	}
	p := make(Polygon, len(coords)/2)
	for i := range p {
		p[i] = Vec2{coords[2*i], coords[2*i+1]}
	}
	return p
}

// XY constructs a Vec2.
func XY(x, y float64) Vec2 { return Vec2{x, y} }

// CirclePolygon returns a regular n-gon approximating the circle of the
// given radius centered at c, counter-clockwise, starting at angle phase.
func CirclePolygon(c Vec2, radius float64, n int, phase float64) Polygon {
	if n < 3 {
		n = 3
	}
	p := make(Polygon, n)
	for i := 0; i < n; i++ {
		a := phase + 2*math.Pi*float64(i)/float64(n)
		p[i] = Vec2{c.X + radius*math.Cos(a), c.Y + radius*math.Sin(a)}
	}
	return p
}

// RectPolygon returns the axis-aligned rectangle [x0,x1]×[y0,y1] as a
// counter-clockwise polygon.
func RectPolygon(x0, y0, x1, y1 float64) Polygon {
	return Polygon{{x0, y0}, {x1, y0}, {x1, y1}, {x0, y1}}
}

// TriangulatePolygon triangulates the simple polygon described by outer
// (counter-clockwise) with optional holes (each a simple loop strictly
// inside outer and disjoint from the others; orientation of the holes is
// normalized internally). It returns the vertex list and triangle indices
// with counter-clockwise winding.
//
// Holes are joined to the outer boundary with bridge edges (David Eberly's
// method: connect each hole's rightmost vertex to a visible outer vertex),
// then the merged simple polygon is ear-clipped.
func TriangulatePolygon(outer Polygon, holes []Polygon) (verts []Vec2, tris [][3]int, err error) {
	if len(outer) < 3 {
		return nil, nil, fmt.Errorf("geom: outer polygon needs ≥3 vertices, got %d", len(outer))
	}
	poly := make(Polygon, len(outer))
	copy(poly, outer)
	if poly.SignedArea() < 0 {
		poly.Reverse()
	}
	// Normalize holes to clockwise and merge rightmost-first, so earlier
	// bridges never occlude later holes.
	hs := make([]Polygon, 0, len(holes))
	for _, h := range holes {
		if len(h) < 3 {
			return nil, nil, fmt.Errorf("geom: hole needs ≥3 vertices, got %d", len(h))
		}
		hc := make(Polygon, len(h))
		copy(hc, h)
		if hc.SignedArea() > 0 {
			hc.Reverse()
		}
		hs = append(hs, hc)
	}
	sort.Slice(hs, func(i, j int) bool {
		return maxXVertex(hs[i]).X > maxXVertex(hs[j]).X
	})
	for _, h := range hs {
		poly, err = bridgeHole(poly, h)
		if err != nil {
			return nil, nil, err
		}
	}
	tris, err = earClip(poly)
	if err != nil {
		return nil, nil, err
	}
	return poly, tris, nil
}

func maxXVertex(p Polygon) Vec2 {
	best := p[0]
	for _, v := range p[1:] {
		if v.X > best.X {
			best = v
		}
	}
	return best
}

// bridgeHole merges the clockwise hole into the counter-clockwise polygon
// by duplicating a mutually visible vertex pair.
func bridgeHole(poly Polygon, hole Polygon) (Polygon, error) {
	// M: hole vertex with maximum x.
	mi := 0
	for i := range hole {
		if hole[i].X > hole[mi].X {
			mi = i
		}
	}
	m := hole[mi]

	// Cast a ray from M in +x; find the closest intersected polygon edge.
	// The crossing count doubles as a containment check: an even count
	// means M (and hence the hole) lies outside the polygon.
	bestT := math.Inf(1)
	bestEdge := -1
	crossings := 0
	var hit Vec2
	for i := range poly {
		j := (i + 1) % len(poly)
		a, b := poly[i], poly[j]
		if (a.Y > m.Y) == (b.Y > m.Y) {
			continue
		}
		t := a.X + (m.Y-a.Y)/(b.Y-a.Y)*(b.X-a.X)
		if t < m.X {
			continue
		}
		crossings++
		if t < bestT {
			bestT = t
			bestEdge = i
			hit = Vec2{t, m.Y}
		}
	}
	if bestEdge == -1 || crossings%2 == 0 {
		return nil, fmt.Errorf("geom: hole at %v is not inside the outer polygon", m)
	}
	// Candidate visible vertex: the endpoint of the hit edge with larger x
	// (guaranteed to the right of M).
	j := (bestEdge + 1) % len(poly)
	pi := bestEdge
	if poly[j].X > poly[pi].X {
		pi = j
	}
	// If some reflex vertex lies inside triangle (M, hit, candidate), the
	// candidate may be occluded; pick the inside vertex minimizing the
	// angle to the +x ray (standard hole-bridging refinement).
	cand := pi
	minAngle := math.Inf(1)
	for i := range poly {
		v := poly[i]
		if v == m {
			continue
		}
		if pointInTriangle(v, m, hit, poly[pi]) {
			d := v.Sub(m)
			ang := math.Abs(math.Atan2(d.Y, d.X))
			if ang < minAngle {
				minAngle = ang
				cand = i
			}
		}
	}
	// Splice: poly[0..cand], M, hole[mi+1..], hole[..mi], M? — standard
	// splice duplicates both bridge endpoints:
	// ..., poly[cand], hole[mi], hole[mi+1], ..., hole[mi-1], hole[mi],
	// poly[cand], poly[cand+1], ...
	out := make(Polygon, 0, len(poly)+len(hole)+2)
	out = append(out, poly[:cand+1]...)
	for k := 0; k <= len(hole); k++ { // hole[mi] .. around .. hole[mi] again
		out = append(out, hole[(mi+k)%len(hole)])
	}
	out = append(out, poly[cand])
	out = append(out, poly[cand+1:]...)
	return out, nil
}

func pointInTriangle(p, a, b, c Vec2) bool {
	d1 := p.Sub(a).Cross(b.Sub(a))
	d2 := p.Sub(b).Cross(c.Sub(b))
	d3 := p.Sub(c).Cross(a.Sub(c))
	hasNeg := d1 < 0 || d2 < 0 || d3 < 0
	hasPos := d1 > 0 || d2 > 0 || d3 > 0
	return !(hasNeg && hasPos)
}

// earClip triangulates a simple counter-clockwise polygon (possibly with
// duplicated bridge vertices) and returns index triangles.
func earClip(poly Polygon) ([][3]int, error) {
	n := len(poly)
	if n < 3 {
		return nil, fmt.Errorf("geom: cannot triangulate polygon with %d vertices", n)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var tris [][3]int
	// Degenerate-safe ear clipping with a stall guard.
	guard := 0
	for len(idx) > 3 {
		clipped := false
		m := len(idx)
		for i := 0; i < m; i++ {
			ia, ib, ic := idx[(i+m-1)%m], idx[i], idx[(i+1)%m]
			a, b, c := poly[ia], poly[ib], poly[ic]
			cross := b.Sub(a).Cross(c.Sub(a))
			if cross <= 1e-14 { // reflex or collinear
				continue
			}
			ear := true
			for _, jv := range idx {
				if jv == ia || jv == ib || jv == ic {
					continue
				}
				q := poly[jv]
				if q == a || q == b || q == c {
					// A duplicated bridge vertex coincides with an ear
					// corner; it only blocks when the polygon walks
					// through it into the ear's interior (checked via its
					// neighbors below).
					continue
				}
				if pointInTriangle(q, a, b, c) {
					ear = false
					break
				}
			}
			if !ear {
				continue
			}
			tris = append(tris, [3]int{ia, ib, ic})
			idx = append(idx[:i], idx[i+1:]...)
			clipped = true
			break
		}
		if !clipped {
			// Relax: clip the convex vertex with smallest |area| even if
			// the containment test failed (handles collinear bridges).
			best, bestCross := -1, math.Inf(1)
			for i := 0; i < len(idx); i++ {
				m := len(idx)
				a := poly[idx[(i+m-1)%m]]
				b := poly[idx[i]]
				c := poly[idx[(i+1)%m]]
				cr := b.Sub(a).Cross(c.Sub(a))
				if cr > 0 && cr < bestCross {
					bestCross = cr
					best = i
				}
			}
			if best == -1 {
				return nil, fmt.Errorf("geom: ear clipping stalled with %d vertices left", len(idx))
			}
			m := len(idx)
			tris = append(tris, [3]int{idx[(best+m-1)%m], idx[best], idx[(best+1)%m]})
			idx = append(idx[:best], idx[best+1:]...)
		}
		if guard++; guard > 10*n {
			return nil, fmt.Errorf("geom: ear clipping did not terminate")
		}
	}
	tris = append(tris, [3]int{idx[0], idx[1], idx[2]})
	// Drop zero-area output triangles (possible at bridge duplicates).
	out := tris[:0]
	for _, t := range tris {
		a, b, c := poly[t[0]], poly[t[1]], poly[t[2]]
		if math.Abs(b.Sub(a).Cross(c.Sub(a))) > 1e-14 {
			out = append(out, t)
		}
	}
	return out, nil
}
