package linkdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

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

// TestOverwrite: the newest record for a URL wins.
func TestOverwrite(t *testing.T) {
	db := openTemp(t)
	db.Put(rec("http://x/"))
	updated := rec("http://x/", "http://y/")
	updated.Status = 404
	db.Put(updated)
	db.Put(rec("http://z/"))
	got, err := db.Get("http://x/")
	if err != nil || got.Status != 404 || len(got.Links) != 1 {
		t.Errorf("overwrite lost: %+v, %v", got, err)
	}
	if db.Len() != 2 {
		t.Errorf("Len = %d, want 2", db.Len())
	}
}

// TestOverwriteLongerRecord: a longer record replaces a shorter one for
// the same URL; the superseded frame stays in the file and the index
// points past it.
func TestOverwriteLongerRecord(t *testing.T) {
	db := openTemp(t)
	start := db.Offset()
	db.Put(rec("http://k/"))
	first := db.Offset()
	db.Put(rec("http://k/", "http://l1/", "http://l2/", "http://l3/"))
	got, err := db.Get("http://k/")
	if err != nil || len(got.Links) != 3 || got.Links[2] != "http://l3/" {
		t.Fatalf("Get after overwrite = %+v, %v", got, err)
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d, want 1", db.Len())
	}
	if first-start >= db.Offset()-first {
		t.Errorf("frames of %d and %d bytes; the newer record should be longer", first-start, db.Offset()-first)
	}
	data, err := os.ReadFile(db.f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if n, valid := crawlog.CountTail(data[start:]); n != 2 || int64(valid) != db.Offset()-start {
		t.Errorf("file holds %d frames in %d bytes, want both frames in %d", n, valid, db.Offset()-start)
	}
}

// TestReopen: after reopening, every URL is there once and an updated
// URL reads its newest record.
func TestReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "links.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		db.Put(rec(fmt.Sprintf("http://h/%d", i), fmt.Sprintf("http://h/%d", i+1)))
	}
	updated := rec("http://h/60", "http://updated/")
	updated.Status = 301
	db.Put(updated)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Len() != 100 {
		t.Errorf("Len after reopen = %d, want 100", db.Len())
	}
	got, err := db.Get("http://h/60")
	if err != nil || got.Status != 301 || !slices.Equal(got.Links, []string{"http://updated/"}) {
		t.Errorf("updated URL after reopen = %+v, %v", got, err)
	}
	got, err = db.Get("http://h/61")
	if err != nil || !slices.Equal(got.Links, []string{"http://h/62"}) {
		t.Errorf("untouched URL after reopen = %+v, %v", got, err)
	}
}

// TestGetAbsentURL: a URL never put reads ErrNotFound — in an empty DB,
// beside a URL it is a prefix of, and after a reopen.
func TestGetAbsentURL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "links.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get("http://a/"); err != ErrNotFound {
		t.Errorf("empty DB: Get = %v, want ErrNotFound", err)
	}
	db.Put(rec("http://a/page"))
	if _, err := db.Get("http://a/"); err != ErrNotFound {
		t.Errorf("prefix of a stored URL: Get = %v, want ErrNotFound", err)
	}
	db.Close()
	db, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Get("http://a/"); err != ErrNotFound {
		t.Errorf("after reopen: Get = %v, want ErrNotFound", err)
	}
	if _, err := db.Get("http://a/page"); err != nil {
		t.Errorf("stored URL after reopen: %v", err)
	}
}

// TestBareRecordRoundTrip: a record holding only its URL — no links, no
// status, no charset — and one whose link is the empty string read back
// as put, live and after a reopen.
func TestBareRecordRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "links.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	bare := &crawlog.Record{URL: "http://bare/"}
	emptyLink := &crawlog.Record{URL: "http://empty-link/", Links: []string{""}}
	for _, r := range []*crawlog.Record{bare, emptyLink} {
		if err := db.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string, db *DB) {
		got, err := db.Get(bare.URL)
		if err != nil || got.URL != bare.URL || got.Status != 0 || len(got.Links) != 0 || got.Size != 0 {
			t.Errorf("%s: bare record = %+v, %v", when, got, err)
		}
		got, err = db.Get(emptyLink.URL)
		if err != nil || !slices.Equal(got.Links, []string{""}) {
			t.Errorf("%s: empty-link record = %+v, %v", when, got, err)
		}
	}
	check("live", db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	check("reopened", db)
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

// TestURLsSorted: URLs lists each URL once, in sorted order, whatever
// order and however often they were put, live and after a reopen.
func TestURLsSorted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "links.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"http://zebra/", "http://apple/", "http://mango/", "http://apple/", "http://zebra/"} {
		db.Put(rec(u))
	}
	want := []string{"http://apple/", "http://mango/", "http://zebra/"}
	if got := db.URLs(); !slices.Equal(got, want) {
		t.Errorf("URLs = %q, want %q", got, want)
	}
	db.Close()
	db, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.URLs(); !slices.Equal(got, want) {
		t.Errorf("URLs after reopen = %q, want %q", got, want)
	}
}

// TestReopenKeepsEveryAcknowledgedRecord: a record with a URL of 1 MiB
// + 1 byte is acknowledged and survives a reopen; one over the crawl
// log's 16 MiB frame cap is refused; the records around both survive.
func TestReopenKeepsEveryAcknowledgedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "links.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	big := "http://big/" + strings.Repeat("p", 1<<20+1-len("http://big/"))
	for _, u := range []string{"http://a/", big, "http://b/"} {
		if err := db.Put(rec(u)); err != nil {
			t.Fatalf("Put(%.20s…): %v", u, err)
		}
		if u == big {
			if err := db.Put(rec("http://huge/", strings.Repeat("l", 17<<20))); err == nil {
				t.Error("a 17 MiB record was acknowledged")
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Len() != 3 {
		t.Errorf("reopen kept %d records of 3", db.Len())
	}
	if got, err := db.Get(big); err != nil || got.URL != big {
		t.Errorf("the 1 MiB URL's record did not survive: %v", err)
	}
}

func TestTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "links.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	db.Put(rec("http://good-1/"))
	db.Put(rec("http://good-2/"))
	db.Close()

	// A torn write: bytes that start a record and stop.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x40, 0xAD, 0xBE})
	f.Close()

	db, err = Open(path)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if db.Len() != 2 {
		t.Errorf("Len after torn-tail recovery = %d, want 2", db.Len())
	}
	// The DB must be writable after recovery and reopen cleanly again.
	if err := db.Put(rec("http://good-3/")); err != nil {
		t.Fatal(err)
	}
	db.Close()
	db, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Len() != 3 {
		t.Errorf("Len after second reopen = %d, want 3", db.Len())
	}
}

// TestCorruptMiddleRecordTruncates: a damaged record ends the valid
// prefix; Open cuts the file there and keeps the records before it.
func TestCorruptMiddleRecordTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "links.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	db.Put(rec("http://a/"))
	db.Sync()
	mid := db.Offset()
	db.Put(rec("http://b/"))
	db.Put(rec("http://c/"))
	db.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[mid+8] ^= 0xFF // inside b's payload
	os.WriteFile(path, data, 0o644)

	db, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.URLs(); !slices.Equal(got, []string{"http://a/"}) {
		t.Errorf("recovered %q, want only the record before the damage", got)
	}
	if info, err := os.Stat(path); err != nil || info.Size() != mid {
		t.Errorf("file not cut at the damaged record's offset %d: %v, %v", mid, info, err)
	}
}

// TestOpenRejectsForeignFile: a file that is not a crawl log — text, a
// cut header, or a link DB in the LCKV1 key-value format of earlier
// versions — is refused with an error naming it, and is left as it was.
func TestOpenRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	for name, data := range map[string][]byte{
		"text":   []byte("something else entirely"),
		"cut.db": []byte("LCLOG"),
		// One record, "http://a/" → "xy", in the LCKV1 format.
		"links.db":  append([]byte("LCKV1\n\x12\x34\x56\x78\x09\x03"), "http://a/xy"...),
		"header.db": []byte("LCLOG1\n\xff"),
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(path)
		if err == nil {
			db.Close()
			t.Errorf("%s: opened as a link DB", name)
		} else if !strings.Contains(err.Error(), path) {
			t.Errorf("%s: error %q does not name the file", name, err)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, data) {
			t.Errorf("%s: refused file changed to %q", name, got)
		}
	}
}

func TestClosedOperationsFail(t *testing.T) {
	db := openTemp(t)
	db.Put(rec("http://k/"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put(rec("http://k/")); err != ErrClosed {
		t.Errorf("Put on closed = %v", err)
	}
	if _, err := db.Get("http://k/"); err != ErrClosed {
		t.Errorf("Get on closed = %v", err)
	}
	if err := db.ForEach(func(*crawlog.Record) error { return nil }); err != ErrClosed {
		t.Errorf("ForEach on closed = %v", err)
	}
	if err := db.Close(); err != nil {
		t.Errorf("double Close = %v", err)
	}
}

// TestSyncErrorsOnClosed: Sync on a closed DB fails with ErrClosed, and
// the calls refused after Close leave the file as Close left it.
func TestSyncErrorsOnClosed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "links.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	db.Put(rec("http://k/"))
	end := db.Offset()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != ErrClosed {
		t.Errorf("Sync on closed = %v", err)
	}
	db.Put(rec("http://late/"))
	if info, err := os.Stat(path); err != nil || info.Size() != end {
		t.Errorf("file after refused calls: %v, %v; want %d bytes", info, err, end)
	}
	db, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.URLs(); !slices.Equal(got, []string{"http://k/"}) {
		t.Errorf("reopened URLs = %q, want only the record put before Close", got)
	}
}

// TestHeaderPastEndBoundsAllocation: a torn tail whose frame claims
// 1<<24 bytes in a 10-byte tail (length 1<<24, a CRC, no payload) is
// read by the bytes that arrive, not by the claim — by the crawl-log
// reader and by the recovery scan Open runs.
func TestHeaderPastEndBoundsAllocation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "links.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	head := db.Offset()
	db.Close()
	tail := append(binary.AppendUvarint(nil, 1<<24), 0, 0, 0, 0, 0, 0)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(tail)
	f.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	r, err := crawlog.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytesAllocated(func() { _, err = r.Next() }); n >= 64<<10 {
		t.Errorf("Next over a %d-byte torn tail allocated %d bytes", len(tail), n)
	}
	if err != crawlog.ErrCorrupt {
		t.Errorf("Next = %v, want ErrCorrupt", err)
	}
	// Open's own reader and writer buffers take 64 KiB each.
	if n := bytesAllocated(func() { db, err = Open(path) }); n >= 256<<10 {
		t.Errorf("Open over a %d-byte torn tail allocated %d bytes", len(tail), n)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Len() != 0 || db.Offset() != head {
		t.Errorf("recovered %d records up to offset %d, want none up to %d", db.Len(), db.Offset(), head)
	}
}

// bytesAllocated returns the bytes f allocates, read from the
// runtime.MemStats TotalAlloc delta.
func bytesAllocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Property: a random sequence of puts, mirrored into a map, leaves the
// DB and the map in agreement — both live and after reopen.
func TestModelBasedQuick(t *testing.T) {
	type op struct {
		Key    uint8
		Status uint16
		Links  []string
	}
	dir := t.TempDir()
	seq := 0
	f := func(ops []op) bool {
		seq++
		path := filepath.Join(dir, fmt.Sprintf("model-%d.db", seq))
		db, err := Open(path)
		if err != nil {
			return false
		}
		model := make(map[string]*crawlog.Record)
		for _, o := range ops {
			r := &crawlog.Record{URL: fmt.Sprintf("http://k%d/", o.Key%16), Status: o.Status % 1000, Links: o.Links}
			if db.Put(r) != nil {
				return false
			}
			model[r.URL] = r
		}
		check := func(db *DB) bool {
			if db.Len() != len(model) {
				return false
			}
			for u, want := range model {
				got, err := db.Get(u)
				if err != nil || got.Status != want.Status || !slices.Equal(got.Links, want.Links) {
					return false
				}
			}
			return true
		}
		if !check(db) {
			return false
		}
		db.Close()
		db, err = Open(path)
		if err != nil {
			return false
		}
		defer db.Close()
		return check(db)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
