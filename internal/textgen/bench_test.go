package textgen

import (
	"testing"

	"langcrawl/internal/charset"
	"langcrawl/internal/rng"
)

// BenchmarkAppendHTMLPage times one page into a warmed buffer for each
// charset family the simulator writes: the three Japanese encodings, a
// Thai one and plain ASCII. Pages cycle through 64 seeds, so ns/op is an
// average over page lengths.
func BenchmarkAppendHTMLPage(b *testing.B) {
	links := []string{
		"http://www.a.example/", "http://www.a.example/p1.html",
		"http://www.b.example/dir/p2.html", "http://www.c.example/p3.html?x=1&y=2",
		"http://www.d.example/p4.html", "http://www.e.example/",
	}
	for _, spec := range []PageSpec{
		{Lang: charset.LangJapanese, Charset: charset.ShiftJIS, DeclaredCharset: charset.ShiftJIS},
		{Lang: charset.LangJapanese, Charset: charset.EUCJP, DeclaredCharset: charset.EUCJP},
		{Lang: charset.LangJapanese, Charset: charset.ISO2022JP, DeclaredCharset: charset.ISO2022JP},
		{Lang: charset.LangThai, Charset: charset.TIS620, DeclaredCharset: charset.TIS620},
		{Lang: charset.LangEnglish, Charset: charset.ASCII, DeclaredCharset: charset.ASCII},
	} {
		spec.Links = links
		b.Run(spec.Charset.String(), func(b *testing.B) {
			var r rng.RNG
			var buf []byte
			for i := 0; i < 64; i++ {
				r.Seed(uint64(i))
				buf = AppendHTMLPage(buf[:0], spec, &r)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Seed(uint64(i % 64))
				buf = AppendHTMLPage(buf[:0], spec, &r)
			}
		})
	}
}
