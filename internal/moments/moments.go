// Package moments computes volume moments of 3D solids and implements the
// moment-based normalization pipeline of §3.1 of the paper (translation,
// scale, and principal-axes orientation normalization).
//
// Mesh moments are exact: the solid is decomposed into signed tetrahedra
// against the origin and each monomial x^l y^m z^n is integrated in closed
// form over every tetrahedron via multinomial expansion on the unit simplex
// (∫_Δ u^a v^b w^c du dv dw = a! b! c! / (a+b+c+3)! with Jacobian 6V).
// For closed, outward-oriented meshes there is no sampling or
// discretization error.
package moments

import (
	"fmt"
	"math"

	"threedess/internal/geom"
)

// MaxOrder is the highest total moment order (l+m+n) the Set type stores.
// The paper's descriptors need order ≤ 2; orders 3-4 serve the
// "higher order invariants" extension. (Normalization's half-space
// disambiguation reads the mesh's bounding box, not third-order moments.)
const MaxOrder = 4

// Set holds all moments m_lmn with l+m+n ≤ MaxOrder, indexed by the three
// exponents.
type Set struct {
	m [MaxOrder + 1][MaxOrder + 1][MaxOrder + 1]float64
}

// M returns the raw moment m_lmn (Equation 3.1 of the paper). It panics if
// any exponent is negative or l+m+n exceeds MaxOrder.
func (s *Set) M(l, m, n int) float64 {
	if l < 0 || m < 0 || n < 0 || l+m+n > MaxOrder {
		panic(fmt.Sprintf("moments: order (%d,%d,%d) out of range", l, m, n))
	}
	return s.m[l][m][n]
}

// set stores a moment value.
func (s *Set) set(l, m, n int, v float64) { s.m[l][m][n] = v }

// Volume returns m_000, the volume of the solid.
func (s *Set) Volume() float64 { return s.m[0][0][0] }

// Centroid returns the first-order moment ratio (m100, m010, m001)/m000.
// A zero-volume set yields the zero vector.
func (s *Set) Centroid() geom.Vec3 {
	v := s.Volume()
	if math.Abs(v) < 1e-300 {
		return geom.Vec3{}
	}
	return geom.V(s.m[1][0][0]/v, s.m[0][1][0]/v, s.m[0][0][1]/v)
}

// SecondMomentMatrix returns the symmetric matrix of second-order moments
//
//	[ m200 m110 m101 ]
//	[ m110 m020 m011 ]
//	[ m101 m011 m002 ]
//
// (Equation 3.10 of the paper, built from raw moments).
func (s *Set) SecondMomentMatrix() geom.Mat3 {
	return geom.Mat3{
		{s.m[2][0][0], s.m[1][1][0], s.m[1][0][1]},
		{s.m[1][1][0], s.m[0][2][0], s.m[0][1][1]},
		{s.m[1][0][1], s.m[0][1][1], s.m[0][0][2]},
	}
}

// Central converts raw moments into central moments µ_lmn (moments about
// the centroid). All orders up to MaxOrder are transformed using the
// binomial shift theorem.
func (s *Set) Central() *Set {
	c := s.Centroid()
	out := &Set{}
	for l := 0; l <= MaxOrder; l++ {
		for m := 0; m <= MaxOrder-l; m++ {
			for n := 0; n <= MaxOrder-l-m; n++ {
				// µ_lmn = Σ C(l,i)C(m,j)C(n,k) (−cx)^(l−i) (−cy)^(m−j)
				//          (−cz)^(n−k) m_ijk
				acc := 0.0
				for i := 0; i <= l; i++ {
					for j := 0; j <= m; j++ {
						for k := 0; k <= n; k++ {
							acc += binom(l, i) * binom(m, j) * binom(n, k) *
								intPow(-c.X, l-i) * intPow(-c.Y, m-j) * intPow(-c.Z, n-k) *
								s.m[i][j][k]
						}
					}
				}
				out.set(l, m, n, acc)
			}
		}
	}
	return out
}

// OfMesh computes all moments of the closed mesh up to MaxOrder, exactly.
func OfMesh(mesh *geom.Mesh) *Set {
	s := &Set{}
	for _, f := range mesh.Faces {
		a := mesh.Vertices[f[0]]
		b := mesh.Vertices[f[1]]
		c := mesh.Vertices[f[2]]
		accumulateTetraMoments(s, a, b, c)
	}
	return s
}

// OfPoints computes moments of a weighted point mass distribution: each
// point contributes weight w to every monomial. This backs the voxel-grid
// moment path (points are voxel centers, w is the cell volume).
func OfPoints(points []geom.Vec3, w float64) *Set {
	s := &Set{}
	var px, py, pz [MaxOrder + 1]float64
	for _, p := range points {
		px[0], py[0], pz[0] = 1, 1, 1
		for i := 1; i <= MaxOrder; i++ {
			px[i] = px[i-1] * p.X
			py[i] = py[i-1] * p.Y
			pz[i] = pz[i-1] * p.Z
		}
		for l := 0; l <= MaxOrder; l++ {
			for m := 0; m <= MaxOrder-l; m++ {
				for n := 0; n <= MaxOrder-l-m; n++ {
					s.m[l][m][n] += w * px[l] * py[m] * pz[n]
				}
			}
		}
	}
	return s
}

// accumulateTetraMoments adds the exact monomial integrals over the signed
// tetrahedron (0, a, b, c) to s.
//
// With the parameterization x = u·a + v·b + w·c over the unit simplex
// {u,v,w ≥ 0, u+v+w ≤ 1} and Jacobian 6V (V the signed tet volume),
//
//	∫ x^l y^m z^n dV = 6V · Σ (multinomial expansion terms)
//	                        · a!b!c!/(a+b+c+3)!   per (u^a v^b w^c) term.
func accumulateTetraMoments(s *Set, a, b, c geom.Vec3) {
	sixV := a.Dot(b.Cross(c)) // 6 × signed volume
	if sixV == 0 {
		return
	}
	// Components per axis for the three simplex directions.
	ax := [3]float64{a.X, b.X, c.X}
	ay := [3]float64{a.Y, b.Y, c.Y}
	az := [3]float64{a.Z, b.Z, c.Z}

	for l := 0; l <= MaxOrder; l++ {
		for m := 0; m <= MaxOrder-l; m++ {
			for n := 0; n <= MaxOrder-l-m; n++ {
				s.m[l][m][n] += sixV * tetraMonomialIntegral(ax, ay, az, l, m, n)
			}
		}
	}
}

// tetraMonomialIntegral returns ∫_Δ (Σuᵢaxᵢ)^l (Σuᵢayᵢ)^m (Σuᵢazᵢ)^n du
// over the unit simplex, where u₀,u₁,u₂ are the barycentric parameters.
// It expands the three powers multinomially and integrates term-wise.
func tetraMonomialIntegral(ax, ay, az [3]float64, l, m, n int) float64 {
	total := 0.0
	// Expand (u0·ax0 + u1·ax1 + u2·ax2)^l over compositions (i0,i1,i2).
	forCompositions(l, func(i [3]int, coefX float64) {
		cx := coefX * intPow(ax[0], i[0]) * intPow(ax[1], i[1]) * intPow(ax[2], i[2])
		if cx == 0 {
			return
		}
		forCompositions(m, func(j [3]int, coefY float64) {
			cy := coefY * intPow(ay[0], j[0]) * intPow(ay[1], j[1]) * intPow(ay[2], j[2])
			if cy == 0 {
				return
			}
			forCompositions(n, func(k [3]int, coefZ float64) {
				cz := coefZ * intPow(az[0], k[0]) * intPow(az[1], k[1]) * intPow(az[2], k[2])
				if cz == 0 {
					return
				}
				p0 := i[0] + j[0] + k[0]
				p1 := i[1] + j[1] + k[1]
				p2 := i[2] + j[2] + k[2]
				total += cx * cy * cz * simplexIntegral(p0, p1, p2)
			})
		})
	})
	return total
}

// forCompositions calls fn for every composition (i0,i1,i2) of p into three
// non-negative parts, with the multinomial coefficient p!/(i0!i1!i2!).
func forCompositions(p int, fn func(idx [3]int, coef float64)) {
	for i0 := 0; i0 <= p; i0++ {
		for i1 := 0; i1 <= p-i0; i1++ {
			i2 := p - i0 - i1
			coef := factorial(p) / (factorial(i0) * factorial(i1) * factorial(i2))
			fn([3]int{i0, i1, i2}, coef)
		}
	}
}

// simplexIntegral returns ∫_Δ u^a v^b w^c du dv dw over the unit 3-simplex
// = a! b! c! / (a+b+c+3)!.
func simplexIntegral(a, b, c int) float64 {
	return factorial(a) * factorial(b) * factorial(c) / factorial(a+b+c+3)
}

// binom returns the binomial coefficient C(n, k) as a float64.
func binom(n, k int) float64 {
	return factorial(n) / (factorial(k) * factorial(n-k))
}

// factorial returns n! as a float64 (exact for the small n used here).
func factorial(n int) float64 {
	f := 1.0
	for i := 2; i <= n; i++ {
		f *= float64(i)
	}
	return f
}

// intPow returns x^n for small non-negative integer n.
func intPow(x float64, n int) float64 {
	p := 1.0
	for i := 0; i < n; i++ {
		p *= x
	}
	return p
}
