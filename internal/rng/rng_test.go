package rng

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical values", same)
	}
}

func TestNew2Independence(t *testing.T) {
	a, b := New2(7, 1), New2(7, 2)
	if a.Uint64() == b.Uint64() {
		t.Error("New2 streams with different stream ids should differ")
	}
	c, d := New2(7, 1), New2(7, 1)
	if c.Uint64() != d.Uint64() {
		t.Error("New2 with identical (seed, stream) should be identical")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	r := New(5)
	for i := 0; i < 500; i++ {
		v := r.IntRange(3, 9)
		if v < 3 || v > 9 {
			t.Fatalf("IntRange(3,9) = %d", v)
		}
	}
	if r.IntRange(4, 4) != 4 {
		t.Error("IntRange(4,4) must be 4")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(13)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean of uniforms = %v, want ~0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(17)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.02 {
		t.Errorf("Bool(0.3) frequency = %v", p)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(19)
	var sum, sumsq float64
	const n = 200000
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestPerm(t *testing.T) {
	r := New(23)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid/duplicate element %d", v)
		}
		seen[v] = true
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(29)
	z := NewZipf(1000, 1.0)
	counts := make([]int, 1000)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Sample(r)]++
	}
	// Rank 0 should be sampled far more than rank 99 (ratio ~100 for s=1).
	if counts[0] < 20*counts[99] {
		t.Errorf("Zipf not skewed: counts[0]=%d counts[99]=%d", counts[0], counts[99])
	}
	// All samples in range was implicitly checked by indexing.
	if z.N() != 1000 {
		t.Errorf("N = %d", z.N())
	}
}

// plainZipfIndex is the whole-CDF lower-bound search Zipf.Sample ran
// before it had a guide table, frozen here as the definition the guided
// search must reproduce index for index.
func plainZipfIndex(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestZipfGuideMatchesPlainSearch checks the guided search against the
// plain one on seeded draws and on every value where float rounding can
// put a uniform on the wrong side of a bucket or CDF edge.
func TestZipfGuideMatchesPlainSearch(t *testing.T) {
	const draws = 1_000_000
	for _, n := range []int{1, 2, 3, 17, 1000, 20000} {
		for _, s := range []float64{0.5, 0.9, 1.5} {
			z := NewZipf(n, s)
			check := func(u float64) {
				if u < 0 || u >= 1 {
					return
				}
				if got, want := z.index(u), plainZipfIndex(z.cdf, u); got != want {
					t.Fatalf("n=%d s=%v u=%v: guided search %d, plain search %d", n, s, u, got, want)
				}
			}
			check(0)
			check(1 - 0x1p-53)
			for k := 0; k <= n; k++ {
				e := float64(k) / float64(n)
				check(e)
				check(math.Nextafter(e, 0))
				check(math.Nextafter(e, 1))
			}
			for _, c := range z.cdf {
				check(c)
				check(math.Nextafter(c, 0))
				check(math.Nextafter(c, 1))
			}
			r := New2(uint64(n), math.Float64bits(s))
			for i := 0; i < draws; i++ {
				check(r.Float64())
			}
		}
	}
}

// TestZipfGuideEdgeCDF runs the same comparison over CDFs whose steps
// sit on a bucket edge k/n or one float either side of it, where a
// uniform that rounds into the neighbouring bucket finds its answer
// outside that bucket's guide range.
func TestZipfGuideEdgeCDF(t *testing.T) {
	for n := 2; n <= 64; n++ {
		for shift := 0; shift < 3; shift++ {
			cdf := make([]float64, n)
			for i := range cdf {
				e := float64(i+1) / float64(n)
				switch (i + shift) % 3 {
				case 1:
					e = math.Nextafter(e, 0)
				case 2:
					e = math.Nextafter(e, 2)
				}
				cdf[i] = e
			}
			cdf[n-1] = 1
			z := zipfFromCDF(cdf)
			for k := 0; k <= n; k++ {
				e := float64(k) / float64(n)
				for _, u := range []float64{e, math.Nextafter(e, 0), math.Nextafter(e, 1),
					math.Nextafter(math.Nextafter(e, 0), 0), math.Nextafter(math.Nextafter(e, 1), 1)} {
					if u < 0 || u >= 1 {
						continue
					}
					if got, want := z.index(u), plainZipfIndex(cdf, u); got != want {
						t.Fatalf("n=%d shift=%d u=%v: guided search %d, plain search %d", n, shift, u, got, want)
					}
				}
			}
		}
	}
}

func TestZipfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewZipf(0, 1) should panic")
		}
	}()
	NewZipf(0, 1)
}

func TestWeightedProportions(t *testing.T) {
	r := New(31)
	w := NewWeighted([]float64{1, 0, 3})
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[w.Sample(r)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index sampled %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Errorf("weight ratio = %v, want ~3", ratio)
	}
}

func TestWeightedPanics(t *testing.T) {
	for _, weights := range [][]float64{{0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWeighted(%v) should panic", weights)
				}
			}()
			NewWeighted(weights)
		}()
	}
}

// Property: LogNormal is always positive.
func TestLogNormalPositiveQuick(t *testing.T) {
	r := New(37)
	f := func(mu, sigma float64) bool {
		if math.IsNaN(mu) || math.IsInf(mu, 0) || math.IsNaN(sigma) || math.IsInf(sigma, 0) {
			return true
		}
		mu = math.Mod(mu, 5)
		sigma = math.Abs(math.Mod(sigma, 3))
		return r.LogNormal(mu, sigma) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Zipf samples are always within range for arbitrary sizes.
func TestZipfRangeQuick(t *testing.T) {
	r := New(41)
	f := func(n uint16, s8 uint8) bool {
		n = n%500 + 1
		s := 0.5 + float64(s8%30)/10
		z := NewZipf(int(n), s)
		for i := 0; i < 20; i++ {
			v := z.Sample(r)
			if v < 0 || v >= int(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestWeightedSampleIsCDFInversion pins Sample to the definition the
// recorded crawls depend on — one uniform, the smallest index whose
// cumulative weight reaches it — by comparing the guided scan with a
// plain binary search over the same table, zero weights and
// single-entry tables included.
func TestWeightedSampleIsCDFInversion(t *testing.T) {
	gen := New(77)
	for trial := 0; trial < 300; trial++ {
		weights := make([]float64, gen.IntRange(1, 200))
		for i := range weights {
			if !gen.Bool(0.3) {
				weights[i] = gen.LogNormal(0, 2)
			}
		}
		weights[gen.Intn(len(weights))] += 1
		w := NewWeighted(weights)
		r := New(uint64(trial))
		for i := 0; i < 500; i++ {
			ref := *r
			u := ref.Float64()
			want := sort.Search(len(w.cdf), func(j int) bool { return !(w.cdf[j] < u) })
			if got := w.Sample(r); got != want {
				t.Fatalf("trial %d: u=%v: Sample = %d, CDF inversion = %d", trial, u, got, want)
			}
			if *r != ref {
				t.Fatal("Sample did not consume exactly one uniform")
			}
		}
	}
}

func TestSeedMatchesNew(t *testing.T) {
	var r RNG
	r.Seed(9)
	if r != *New(9) {
		t.Error("Seed(9) differs from New(9)")
	}
	r.Seed2(9, 4)
	if r != *New2(9, 4) {
		t.Error("Seed2(9, 4) differs from New2(9, 4)")
	}
}

// textgenWeights are the glyph weights of textgen's four inventories
// (hiragana, katakana, kanji, Thai): the samplers every synthesized page
// draws from. They are copied here because textgen imports this package.
var textgenWeights = [][]float64{
	{9, 9, 8, 7, 7, 7, 6, 6, 6, 6, 5, 5, 5, 5, 5, 5, 4, 4, 4, 4, 4, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
	{4, 4, 6, 4, 4, 4, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 1, 2, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 5},
	{5, 4, 4, 3},
	{9, 8, 8, 7, 7, 6, 6, 6, 5, 5, 5, 5, 5, 4, 4, 4, 4, 4, 6, 6, 6, 5, 4, 3, 3, 2, 2, 3, 2, 2, 3, 3, 2, 2, 3, 3, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1},
}

// guideTestSets are the weight sets the guide tests run over:
// textgen's inventories, uniform weights whose CDF steps land on guide
// edges, and random weights — zeros, tiny weights and more indices than
// buckets included.
func guideTestSets() [][]float64 {
	sets := append([][]float64{}, textgenWeights...)
	for _, n := range []int{1, 2, 3, 4, 5, 64, 1000, guideSize, 2 * guideSize, 5000} {
		w := make([]float64, n)
		for i := range w {
			w[i] = 1
		}
		sets = append(sets, w)
	}
	gen := New(38)
	for trial := 0; trial < 200; trial++ {
		w := make([]float64, gen.IntRange(1, 3000))
		for i := range w {
			if !gen.Bool(0.3) {
				w[i] = gen.LogNormal(0, 3)
			}
		}
		w[gen.Intn(len(w))] += 1
		sets = append(sets, w)
	}
	return sets
}

// TestWeightedGuideEdges compares the guided scan with a plain search
// over the CDF where a guide can go wrong: at every guide edge
// k/guideSize, at every CDF value, at the float neighbours of both, and
// at 0 and 1-2⁻⁵³, over every guideTestSets set.
func TestWeightedGuideEdges(t *testing.T) {
	sets := guideTestSets()
	for set, weights := range sets {
		w := NewWeighted(weights)
		check := func(u float64) {
			if u < 0 || u >= 1 {
				return
			}
			want := sort.Search(len(w.cdf), func(j int) bool { return w.cdf[j] >= u })
			if got := w.index(u); got != want {
				t.Fatalf("set %d (%d weights): u=%v: guided scan %d, CDF search %d", set, len(weights), u, got, want)
			}
		}
		check(0)
		check(1 - 0x1p-53)
		for k := 0; k <= guideSize; k++ {
			e := float64(k) / guideSize
			check(e)
			check(math.Nextafter(e, 0))
			check(math.Nextafter(e, 1))
		}
		for _, c := range w.cdf {
			check(c)
			check(math.Nextafter(c, 0))
			check(math.Nextafter(c, 1))
		}
	}
}

// TestStreamGolden pins the generator's stream and the samplers built on
// it to recorded values: pages and spaces are regenerated from seeds,
// so any change here moves every recorded crawl. It covers raw draws of
// New and New2 and a mixed run of Float64 (as its 53 bits), Intn,
// IntRange, Bool and Weighted.Sample over textgen's inventories.
func TestStreamGolden(t *testing.T) {
	raw := []struct {
		r    *RNG
		want [16]uint64
	}{
		{New(1), [16]uint64{
			0xb3f2af6d0fc710c5, 0x853b559647364cea, 0x92f89756082a4514, 0x642e1c7bc266a3a7,
			0xb27a48e29a233673, 0x24c123126ffda722, 0x123004ef8df510e6, 0x61954dcc47b1e89d,
			0xddfdb48ab9ed4a21, 0x8d3cdb8c3aa5b1d0, 0xeebd114bd87226d1, 0xf50c3ff1e7d7e8a6,
			0xeeca3115e23bc8f1, 0xab49ed3db4c66435, 0x99953c6c57808dd7, 0xe3fa941b05219325,
		}},
		{New2(3, 5), [16]uint64{
			0xb6f08d9e6f10dfd2, 0xb42826889fa55a17, 0x95aaf5e0aef5708c, 0x1d89bca8ad5de290,
			0xddfb3b458864d270, 0x2327a75020e33147, 0xeb5589c9c2450b7b, 0x65076518cff01c14,
			0xca880dcdaa3a20fc, 0xcfa42ef3b382a166, 0x512577eda9b0477a, 0xef9ef0e5c5ecbefb,
			0xb60560ac70c37b3c, 0x6d6abfcad4693324, 0x1dd2f328f08792e8, 0x177997b53fa98ace,
		}},
	}
	for s, c := range raw {
		for i, want := range c.want {
			if got := c.r.Uint64(); got != want {
				t.Fatalf("stream %d draw %d: Uint64 = %#016x, want %#016x", s, i, got, want)
			}
		}
	}

	mixed := []uint64{
		1663553631218410, 646, 2, 1, 8, 30, 760300472034359, 355, 3, 0, 2, 35,
		5570135246149101, 859, 6, 0, 19, 8, 415995796345869, 407, 5, 1, 0, 23,
		6617671775373116, 775, 5, 1, 5, 6, 1282716200350051, 826, 4, 1, 2, 5,
		6433690984142656, 258, 6, 0, 14, 18, 3113551662181789, 353, 6, 0, 2, 21,
		6907518882805238, 384, 3, 0, 10, 12, 7094686467275683, 115, 6, 0, 2, 34,
		6499878568108323, 464, 4, 0,
	}
	ws := make([]*Weighted, len(textgenWeights))
	for i, w := range textgenWeights {
		ws[i] = NewWeighted(w)
	}
	r := New2(41, 7)
	for i, want := range mixed {
		var got uint64
		switch i % 6 {
		case 0:
			got = uint64(r.Float64() * (1 << 53))
		case 1:
			got = uint64(r.Intn(1000 + i))
		case 2:
			got = uint64(r.IntRange(2, 6))
		case 3:
			if r.Bool(0.5) {
				got = 1
			}
		default:
			got = uint64(ws[i%4].Sample(r))
		}
		if got != want {
			t.Fatalf("mixed draw %d: got %d, want %d", i, got, want)
		}
	}
}

// TestWeightedPickMatchesIndex holds Pick, which answers an exact
// bucket from a raw draw's top bits, to the guided scan over the
// uniform Float64 makes of the same draw: at the first and last draw of
// every bucket and at random low bits in it. It runs over every
// guideTestSets set and over CDFs whose steps sit on a bucket's last
// uniform or one float either side of it, where a bucket is exact or
// not by one ulp.
func TestWeightedPickMatchesIndex(t *testing.T) {
	var ws []*Weighted
	for _, weights := range guideTestSets() {
		ws = append(ws, NewWeighted(weights))
	}
	for n := 2; n <= 64; n++ {
		for shift := 0; shift < 3; shift++ {
			cdf := make([]float64, n)
			for i := range cdf {
				// Bucket edge b: the step lands on the last uniform of
				// bucket b-1, one ulp below it, or on the edge itself.
				b := uint64((i + 1) * guideSize / n)
				cdf[i] = float64(b<<(53-guideBits)-1+uint64((i+shift)%3)-1) / (1 << 53)
			}
			cdf[n-1] = 1
			ws = append(ws, weightedFromCDF(cdf))
		}
	}
	gen := New(54)
	for set, w := range ws {
		exact := 0
		for k := uint64(0); k < guideSize; k++ {
			if w.guide[k]&guideExact != 0 {
				exact++
			}
			hi := k << (64 - guideBits)
			for _, x := range []uint64{hi, hi | (1<<(64-guideBits) - 1),
				hi | gen.Uint64()>>guideBits, hi | gen.Uint64()>>guideBits} {
				if got, want := w.Pick(x), w.index(float64(x>>11)/(1<<53)); got != want {
					t.Fatalf("set %d (%d weights): x=%#016x: Pick %d, guided scan %d", set, len(w.cdf), x, got, want)
				}
			}
		}
		if set < len(textgenWeights) && exact < guideSize*9/10 {
			t.Errorf("set %d (%d weights): %d of %d buckets exact", set, len(w.cdf), exact, guideSize)
		}
	}
}
