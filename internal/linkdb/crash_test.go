package linkdb

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"langcrawl/internal/charset"
	"langcrawl/internal/crawlog"
)

// TestCrashAtEveryByte cuts a link database at every byte offset and
// reopens it: every cut must either recover cleanly (a record-prefix of
// the original contents, still writable) or fail with an error — never
// panic, and never hand back a record that was not put. A cut header is
// the one error; past it, the recovered offset agrees byte for byte
// with crawlog.CountTail's valid prefix.
func TestCrashAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.db")
	db, err := Open(ref)
	if err != nil {
		t.Fatal(err)
	}
	head := db.Offset()
	put := map[string]*crawlog.Record{}
	for _, rec := range []*crawlog.Record{
		{URL: "http://h0/a", Status: 200, TrueCharset: charset.TIS620, Size: 1234,
			Links: []string{"http://h0/b", "http://h1/"}},
		{URL: "http://h0/b", Status: 404, Size: 9},
		{URL: "http://h1/", Status: 200, TrueCharset: charset.ShiftJIS, Size: 77,
			Links: []string{"http://h0/a"}, Truncated: true},
	} {
		if err := db.Put(rec); err != nil {
			t.Fatal(err)
		}
		put[rec.URL] = rec
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}

	cut := filepath.Join(dir, "cut.db")
	sawFull := false
	for n := 0; n <= len(data); n++ {
		if err := os.WriteFile(cut, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(cut)
		if n > 0 && int64(n) < head {
			// A partial header is damage, not a torn tail: the header is
			// written once at create time, so losing it means the file
			// was never a link DB.
			if err == nil {
				db.Close()
				t.Fatalf("cut at %d: partial header accepted", n)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut at %d: %v", n, err)
		}
		_, valid := crawlog.CountTail(data[head:max(int64(n), head)])
		if want := head + int64(valid); db.Offset() != want {
			t.Fatalf("cut at %d: recovered offset %d, want %d", n, db.Offset(), want)
		}
		// Whatever survived must be records we actually put, intact.
		if err := db.ForEach(func(rec *crawlog.Record) error {
			want, ok := put[rec.URL]
			if !ok {
				t.Fatalf("cut at %d: recovered unknown URL %q", n, rec.URL)
			}
			if len(rec.Links) == 0 && len(want.Links) == 0 {
				rec.Links, want.Links = nil, nil // codec may round nil to empty
			}
			if !reflect.DeepEqual(rec, want) {
				t.Fatalf("cut at %d: record %q corrupted: %+v vs %+v", n, rec.URL, rec, want)
			}
			return nil
		}); err != nil {
			t.Fatalf("cut at %d: %v", n, err)
		}
		if db.Len() == len(put) {
			sawFull = true
		}
		// And the store must still accept new records.
		probe := &crawlog.Record{URL: "http://probe/", Status: 200}
		if err := db.Put(probe); err != nil {
			t.Fatalf("cut at %d: put after recovery: %v", n, err)
		}
		got, err := db.Get("http://probe/")
		if err != nil || got.Status != 200 {
			t.Fatalf("cut at %d: get after recovery: %v, %v", n, got, err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("cut at %d: close: %v", n, err)
		}
	}
	if !sawFull {
		t.Fatal("no cut recovered the complete database — even the uncut file failed")
	}
}

// TestCrashAtEveryByteNewestWins cuts a log in which a URL is put twice
// at every byte offset: each cut recovers exactly the records of its
// complete frames, and where both of a URL's frames survive the newer
// one is read.
func TestCrashAtEveryByteNewestWins(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.db")
	db, err := Open(ref)
	if err != nil {
		t.Fatal(err)
	}
	head := db.Offset()
	steps := []*crawlog.Record{
		{URL: "http://a/", Status: 1},
		{URL: "http://b/", Status: 2, Links: []string{"http://a/"}},
		{URL: "http://a/", Status: 3, Links: []string{"http://b/", "http://c/"}}, // supersedes
		{URL: "http://c/", Status: 4, Size: 4096},
	}
	for _, rec := range steps {
		if err := db.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}

	cut := filepath.Join(dir, "cut.db")
	for n := int(head); n <= len(data); n++ {
		if err := os.WriteFile(cut, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(cut)
		if err != nil {
			t.Fatalf("cut at %d: %v", n, err)
		}
		frames, _ := crawlog.CountTail(data[head:n])
		want := map[string]uint16{} // URL → status of its newest surviving frame
		for _, rec := range steps[:frames] {
			want[rec.URL] = rec.Status
		}
		if db.Len() != len(want) {
			t.Fatalf("cut at %d: Len = %d, want %d", n, db.Len(), len(want))
		}
		for url, status := range want {
			got, err := db.Get(url)
			if err != nil || got.Status != status {
				t.Fatalf("cut at %d: %s = %+v, %v; want status %d", n, url, got, err, status)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatalf("cut at %d: close: %v", n, err)
		}
	}
}

// TestCrashLoopReopen crashes the same DB file repeatedly — cut a few
// bytes, reopen, append, cut again — verifying each generation of
// recovery composes with the last instead of compounding damage.
func TestCrashLoopReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loop.db")
	for gen := 0; gen < 12; gen++ {
		db, err := Open(path)
		if err != nil {
			t.Fatalf("gen %d: %v", gen, err)
		}
		if err := db.Put(&crawlog.Record{URL: fmt.Sprintf("http://gen-%d/", gen), Status: 200}); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		// Tear off a generation-dependent sliver of the tail, never more
		// than the record just written.
		if tear := gen % 5; tear > 0 {
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, info.Size()-int64(tear)); err != nil {
				t.Fatal(err)
			}
		}
	}
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// A generation torn by its own tail cut is legitimately lost; every
	// untorn generation must read back — recovery never eats an intact
	// record, however many crashes compound.
	for gen := 0; gen < 12; gen++ {
		_, err := db.Get(fmt.Sprintf("http://gen-%d/", gen))
		torn := gen%5 != 0
		if !torn && err != nil {
			t.Errorf("generation %d was written intact but lost: %v", gen, err)
		}
		if torn && err != ErrNotFound {
			t.Errorf("generation %d had its record torn yet reads back (%v)", gen, err)
		}
	}
}
