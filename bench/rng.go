package main

import "math"

// rng is a splitmix64 generator. The benchmark owns its generator instead
// of using math/rand so that request i of a stream is a pure function of
// (seed, stream, i) at the cost of a few multiplications: math/rand's
// source takes microseconds to seed, which would rival a cached search.
type rng struct{ s uint64 }

// newRNG derives an independent generator for item i of a named stream.
func newRNG(seed int64, stream string, i uint64) rng {
	h := uint64(seed) * 0x9E3779B97F4A7C15
	for _, c := range []byte(stream) {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	r := rng{s: h ^ (i+1)*0xD1342543DE82EF95}
	r.next() // decorrelate neighbouring items
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// norm returns a standard normal value (Box–Muller).
func (r *rng) norm() float64 {
	u := 1 - r.float() // (0, 1]
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*r.float())
}

// zipf samples ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

// rank maps a uniform u in [0, 1) to a rank.
func (z *zipf) rank(u float64) int {
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
