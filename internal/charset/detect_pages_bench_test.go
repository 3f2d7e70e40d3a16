package charset_test

import (
	"testing"

	"langcrawl/internal/charset"
	"langcrawl/internal/webgraph"
)

// BenchmarkDetectGeneratedPages detects every status-200 page of the
// spaces the simulator's body-reading runs classify, one page per
// iteration in page order. Unlike the BenchmarkClassify* bodies, which
// all exit at the second check window, these pages are small and mostly
// read to the end, so the cost per byte of the prober loops shows. It
// reports ns/page and ns/byte (over the whole page, scanned or not).
func BenchmarkDetectGeneratedPages(b *testing.B) {
	for _, sp := range []struct {
		name string
		cfg  webgraph.Config
	}{
		{"japanese6000.3", webgraph.JapaneseLike(6000, 3)},
		{"thai6000.3", webgraph.ThaiLike(6000, 3)},
	} {
		b.Run(sp.name, func(b *testing.B) {
			s, err := webgraph.Generate(sp.cfg)
			if err != nil {
				b.Fatal(err)
			}
			var pages [][]byte
			for id := 0; id < s.N(); id++ {
				if s.IsOK(webgraph.PageID(id)) {
					pages = append(pages, s.PageBytes(webgraph.PageID(id)))
				}
			}
			charset.Detect(pages[0]) // warm the detector pool
			b.ReportAllocs()
			b.ResetTimer()
			var bytes int64
			for i := 0; i < b.N; i++ {
				p := pages[i%len(pages)]
				charset.Detect(p)
				bytes += int64(len(p))
			}
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(ns/float64(b.N), "ns/page")
			b.ReportMetric(ns/float64(bytes), "ns/byte")
		})
	}
}
