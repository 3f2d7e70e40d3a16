package linkdb

import (
	"fmt"
	"path/filepath"
	"testing"

	"langcrawl/internal/crawlog"
)

// Link-database append benchmarks: the crawler's Put with no
// per-record fsync (it syncs at each checkpoint) against the fully
// durable sync-per-record path. cmd/benchcheck gates CI runs against
// BENCH_frontier.json.

func benchDB(b *testing.B) *DB {
	b.Helper()
	db, err := Open(filepath.Join(b.TempDir(), "links.db"))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

func benchRec(i int) *crawlog.Record {
	return &crawlog.Record{
		URL:    fmt.Sprintf("http://site%05d.co.th/p%d.html", i%257, i),
		Status: 200,
		Size:   8192,
		Links:  []string{"http://a.co.th/", "http://b.co.th/p1.html"},
	}
}

// BenchmarkLinkDBPutNoSync is the crawler's path: Put with no
// per-record durability.
func BenchmarkLinkDBPutNoSync(b *testing.B) {
	db := benchDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Put(benchRec(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinkDBPutSyncEach is the fully durable strawman: fsync after
// every record.
func BenchmarkLinkDBPutSyncEach(b *testing.B) {
	db := benchDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Put(benchRec(i)); err != nil {
			b.Fatal(err)
		}
		if err := db.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}
