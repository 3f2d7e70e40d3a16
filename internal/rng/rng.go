// Package rng provides a small, fast, deterministic random number
// generator for simulations. Determinism across Go versions matters
// here: page content and web-graph structure are *regenerated* from
// seeds rather than stored, so the generator must be stable — hence a
// self-contained splitmix64/xoshiro core instead of math/rand, whose
// stream is not guaranteed across releases.
package rng

import "math"

// RNG is a xoshiro256** generator seeded via splitmix64. The zero value
// is not usable; construct with New or seed a declared value with Seed.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from seed. Distinct seeds give
// independent-looking streams (splitmix64 scrambles the seed).
func New(seed uint64) *RNG {
	r := new(RNG)
	r.Seed(seed)
	return r
}

// New2 returns a generator seeded from a (seed, stream) pair — the usual
// way to derive a per-page or per-site stream from a space seed.
func New2(seed, stream uint64) *RNG {
	r := new(RNG)
	r.Seed2(seed, stream)
	return r
}

// Seed restarts r as the stream New(seed) returns. Per-page hot paths
// declare one RNG on the stack and reseed it rather than allocate a
// generator per page.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9E3779B97F4A7C15
		z := sm
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		r.s[i] = z ^ (z >> 31)
	}
}

// Seed2 restarts r as the stream New2(seed, stream) returns.
func (r *RNG) Seed2(seed, stream uint64) {
	r.Seed(seed*0x9E3779B97F4A7C15 + stream*0xD1B54A32D192ED03 + 0x8CB92BA72F3D8DD7)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// IntRange returns a uniform int in [lo, hi]. hi must be >= lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// LogNormal returns exp(mu + sigma*N(0,1)); heavy-tailed sizes such as
// page lengths and site page counts are drawn from this.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s via a precomputed CDF: Sample returns the smallest rank
// whose cumulative probability reaches the uniform drawn. It is
// deterministic given the RNG stream, unlike math/rand's rejection
// sampler which consumes a variable number of uniforms — CDF inversion
// consumes exactly one uniform per sample, keeping derived streams
// aligned.
//
// A guide table of n buckets narrows the search: guide[k] is the
// smallest rank whose cumulative probability reaches k/n, so a uniform
// in bucket k = ⌊u·n⌋ is answered by a binary search over
// [guide[k], guide[k+1]] alone — the few ranks one bucket spans, where
// a search over the whole CDF takes log n cold branches. The narrowed
// search returns exactly the index the whole-CDF search does: where
// float rounding puts u outside its bucket's range, the range is
// widened.
type Zipf struct {
	cdf   []float64
	guide []int // n+1 entries; guide[n] = n-1
}

// NewZipf builds a Zipf sampler over n ranks with exponent s > 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // guard against rounding
	return zipfFromCDF(cdf)
}

// zipfFromCDF builds the guide table over a non-decreasing cdf ending
// in 1.
func zipfFromCDF(cdf []float64) *Zipf {
	n := len(cdf)
	guide := make([]int, n+1)
	i := 0
	for k := range guide {
		for cdf[i] < float64(k)/float64(n) {
			i++
		}
		guide[k] = i
	}
	return &Zipf{cdf: cdf, guide: guide}
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// Sample draws one rank using r.
func (z *Zipf) Sample(r *RNG) int { return z.index(r.Float64()) }

// index returns the smallest rank i with cdf[i] >= u, for u in [0, 1).
func (z *Zipf) index(u float64) int {
	n := len(z.cdf)
	k := int(u * float64(n))
	if k > n-1 {
		k = n - 1 // defensive: for u < 1, u·n rounds below n
	}
	lo, hi := z.guide[k], z.guide[k+1]
	if lo > 0 && z.cdf[lo-1] >= u {
		lo = 0 // u·n rounded up into the bucket above u's own
	}
	if z.cdf[hi] < u {
		hi = n - 1 // defensive: a u above k/n never rounds below k
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Weighted samples indices 0..n-1 proportionally to the given
// non-negative weights, again via CDF inversion: Sample returns the
// smallest index whose cumulative weight reaches the uniform drawn.
type Weighted struct {
	cdf []float64
	// guide[k] is the smallest index whose cumulative weight reaches
	// k/guideSize: the scan for a uniform in [k/guideSize, (k+1)/guideSize)
	// starts there, and with many more buckets than indices it almost
	// always stops there too, where a binary search would take log n
	// unpredictable branches to the same index.
	guide [guideSize]uint16
}

// guideSize is a power of two, so u*guideSize and k/guideSize are exact.
const guideSize = 1024

// NewWeighted builds a sampler from weights. At least one weight must be
// positive.
func NewWeighted(weights []float64) *Weighted {
	if len(weights) > 1<<16 {
		panic("rng: too many weights")
	}
	cdf := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		if w < 0 {
			panic("rng: negative weight")
		}
		sum += w
		cdf[i] = sum
	}
	if sum == 0 {
		panic("rng: all weights zero")
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[len(cdf)-1] = 1
	w := &Weighted{cdf: cdf}
	i := 0
	for k := range w.guide {
		for cdf[i] < float64(k)/guideSize {
			i++
		}
		w.guide[k] = uint16(i)
	}
	return w
}

// Sample draws one index using r.
func (w *Weighted) Sample(r *RNG) int { return w.index(r.Float64()) }

// index returns the smallest index i with cdf[i] >= u, for u in [0, 1).
func (w *Weighted) index(u float64) int {
	i := int(w.guide[int(u*guideSize)])
	for w.cdf[i] < u {
		i++
	}
	return i
}
