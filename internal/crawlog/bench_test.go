package crawlog

import (
	"io"
	"testing"
)

// Append benchmark for the crawl log: one record through the Writer, the
// path the live crawler takes for every page. cmd/benchcheck gates CI
// runs against BENCH_frontier.json.

func benchRecord() *Record {
	return &Record{
		URL:         "http://site00042.co.th/dir/page017.html",
		Status:      200,
		TrueCharset: 1,
		Declared:    2,
		Size:        8192,
		Links: []string{
			"http://site00042.co.th/",
			"http://site00042.co.th/dir/page018.html",
			"http://site00107.example.com/index.html",
			"http://site00019.co.th/a/b/c.html",
		},
	}
}

func BenchmarkCrawlogAppendUnbatched(b *testing.B) {
	w, err := NewWriter(io.Discard, Header{})
	if err != nil {
		b.Fatal(err)
	}
	rec := benchRecord()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(rec); err != nil {
			b.Fatal(err)
		}
	}
}
