package webgraph

import "testing"

// TestPageBytesAppendZeroAlloc pins page synthesis at zero allocations
// per page into a warmed buffer, on the static space and on an evolved
// view (edited versions, drifted languages): no href strings, no
// per-page generator or sampler tables, no string copy of the page.
func TestPageBytesAppendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, cfg := range []Config{ThaiLike(400, 7), JapaneseLike(400, 7)} {
		s, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEvolver(s, EvolveConfig{Seed: 11, EditRate: 0.02, DriftRate: 0.004, RateSkew: 1})
		e.AdvanceTo(400)
		for name, render := range map[string]func([]byte, PageID) []byte{
			"Space":   s.PageBytesAppend,
			"Evolver": e.PageBytesAppend,
		} {
			var buf []byte
			sweep := func() {
				for id := 0; id < s.N(); id++ {
					buf = render(buf[:0], PageID(id))
				}
			}
			sweep() // grow buf and the pooled scratch to steady state
			if n := testing.AllocsPerRun(5, sweep); n != 0 {
				t.Errorf("%s.PageBytesAppend (%s space): %.0f allocations per %d-page sweep, want 0",
					name, s.Target, n, s.N())
			}
		}
	}
}

// TestGenerateAllocs pins Generate at O(sites) allocations: the link
// lists go straight into the CSR arrays, with no per-page slice. The
// measured count is about 2.9 per site (a host string, its map slot and
// the per-language site lists; 5 853 for this space's 1 988 sites); a
// slice per page's links would add about 5 per page. The bound allows
// 4 per site plus 100.
func TestGenerateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cfg := ThaiLike(100_000, 3)
	var s *Space
	allocs := testing.AllocsPerRun(1, func() {
		var err error
		if s, err = Generate(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 4*float64(len(s.Sites)) + 100; allocs > limit {
		t.Errorf("Generate(ThaiLike(%d, %d)): %.0f allocations for %d sites, want <= %.0f",
			cfg.Pages, cfg.Seed, allocs, len(s.Sites), limit)
	}
	if cap(s.links) != len(s.links) {
		t.Errorf("links: cap %d, len %d: the space holds a spare tail", cap(s.links), len(s.links))
	}
}

func BenchmarkPageBytesAppend(b *testing.B) {
	s, err := Generate(JapaneseLike(2000, 3))
	if err != nil {
		b.Fatal(err)
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = s.PageBytesAppend(buf[:0], PageID(i%s.N()))
	}
}

func BenchmarkGenerate(b *testing.B) {
	cfg := ThaiLike(1_000_000, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
