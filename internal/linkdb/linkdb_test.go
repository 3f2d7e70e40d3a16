package linkdb

import (
	"path/filepath"
	"testing"

	"langcrawl/internal/charset"
	"langcrawl/internal/crawlog"
)

func openTemp(t *testing.T) *DB {
	t.Helper()
	db, err := Open(filepath.Join(t.TempDir(), "links.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func rec(url string, links ...string) *crawlog.Record {
	return &crawlog.Record{
		URL: url, Status: 200, TrueCharset: charset.TIS620,
		Declared: charset.TIS620, Size: 1024, Links: links,
	}
}

func TestPutGet(t *testing.T) {
	db := openTemp(t)
	r := rec("http://a.co.th/", "http://a.co.th/p1.html", "http://b.com/")
	if err := db.Put(r); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get("http://a.co.th/")
	if err != nil {
		t.Fatal(err)
	}
	if got.URL != r.URL || len(got.Links) != 2 || got.Links[1] != "http://b.com/" {
		t.Errorf("Get = %+v", got)
	}
	if _, err := db.Get("http://absent/"); err != ErrNotFound {
		t.Errorf("absent URL error = %v", err)
	}
}

func TestPutEmptyURLRejected(t *testing.T) {
	db := openTemp(t)
	if err := db.Put(&crawlog.Record{}); err == nil {
		t.Error("empty URL accepted")
	}
}

func TestOverwriteAndDelete(t *testing.T) {
	db := openTemp(t)
	db.Put(rec("http://x/"))
	updated := rec("http://x/", "http://y/")
	updated.Status = 404
	db.Put(updated)
	got, _ := db.Get("http://x/")
	if got.Status != 404 || len(got.Links) != 1 {
		t.Errorf("overwrite lost: %+v", got)
	}
	db.Delete("http://x/")
	if _, err := db.Get("http://x/"); err != ErrNotFound {
		t.Errorf("Get after Delete: error = %v, want ErrNotFound", err)
	}
}

func TestPersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "links.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		db.Put(rec("http://h/p" + string(rune('a'+i%26)) + string(rune('a'+i/26)) + ".html"))
	}
	n := db.Len()
	db.Close()

	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Len() != n {
		t.Errorf("Len after reopen = %d, want %d", db2.Len(), n)
	}
}

func TestForEachSorted(t *testing.T) {
	db := openTemp(t)
	for _, u := range []string{"http://c/", "http://a/", "http://b/"} {
		db.Put(rec(u))
	}
	var got []string
	err := db.ForEach(func(r *crawlog.Record) error {
		got = append(got, r.URL)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://a/", "http://b/", "http://c/"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order = %v", got)
		}
	}
	urls := db.URLs()
	for i := range want {
		if urls[i] != want[i] {
			t.Fatalf("URLs order = %v", urls)
		}
	}
}

func TestCompactKeepsData(t *testing.T) {
	db := openTemp(t)
	for i := 0; i < 100; i++ {
		db.Put(rec("http://churn/")) // same key overwritten
	}
	db.Put(rec("http://keep/"))
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 2 {
		t.Errorf("Len after compact = %d", db.Len())
	}
	if _, err := db.Get("http://keep/"); err != nil {
		t.Errorf("lost record in compact: %v", err)
	}
	if err := db.Sync(); err != nil {
		t.Errorf("Sync: %v", err)
	}
}
