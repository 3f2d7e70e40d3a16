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
