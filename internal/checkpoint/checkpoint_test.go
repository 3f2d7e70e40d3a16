// External test package so the suite can drive the checkpoint protocol
// through faults.CrashFS (faults imports checkpoint, so an internal test
// importing faults would be a cycle).
package checkpoint_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"langcrawl/internal/checkpoint"
	"langcrawl/internal/faults"
	"langcrawl/internal/metrics"
)

// sampleState fills every State field so codec tests cover the whole
// wire format, negative distances and non-trivial floats included.
func sampleState(crawled int) *checkpoint.State {
	return &checkpoint.State{
		Kind:          checkpoint.KindLive,
		Strategy:      "soft-focused",
		Crawled:       crawled,
		Relevant:      crawled / 2,
		Dropped:       3,
		Errors:        4,
		RobotsBlocked: 1,
		MaxQueue:      57,
		Frontier: []checkpoint.Entry{
			{URL: "http://h0.example/a", ID: 7, Dist: -2, Prio: 0.25},
			{URL: "http://h1.example/b", ID: 9, Dist: 3, Prio: -1.5, Revisit: true},
		},
		VisitedURLs: []string{"http://h0.example/", "http://h1.example/"},
		VisitedBits: []byte{0b0000_1101, 0b0000_0001}, // pages 0, 2, 3 and 8, LSB first
		VisitedN:    9,
		Breakers: []checkpoint.Breaker{
			{Host: "h0.example", State: 1, Failures: 5, Successes: 2, Probing: true, OpenedAt: 17.5, Trips: 1},
		},
		HostUsage: []checkpoint.HostUsage{
			{Host: "h0.example", Pages: 12, URLs: 340, Bytes: 1 << 20, Traps: 2, Quarantined: true},
			{Host: "h1.example", Pages: 1, URLs: 8, Bytes: 4096},
		},
		Faults: metrics.FaultCounters{
			Attempts: 40, Retries: 6, Failures: 7, Truncated: 1,
			BreakerTrips: 1, BreakerSkips: 2, WastedFetches: 3,
		},
		LogPos: 12345,
		DBPos:  678,
		Pass:   2,
		VTime:  99.75,
		Fresh: metrics.FreshCounters{
			Revisits: 14, Unchanged: 9, Changed: 3, Deleted: 1, Born: 2, CondHits: 8,
		},
		Revisit: []checkpoint.RevisitRec{
			{URL: "http://h0.example/a", ID: 7, Dist: -2, Version: 4, Visits: 5, Changes: 2,
				Hash: 0xdeadbeefcafe, ETag: `"7-4"`, LastMod: "Tue, 05 Apr 2005 12:00:00 GMT",
				LastVisit: 31.5, Due: 47.25, Held: true},
			{URL: "http://h1.example/b", ID: 9, Dist: 1, Visits: 1, Dead: true},
		},
		FreshCurve: []checkpoint.Point{{X: 10, Y: 100}, {X: 20, Y: 87.5}},
	}
}

func TestStateRoundTrip(t *testing.T) {
	want := sampleState(100)
	got, err := checkpoint.Decode(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestStateRejectsDamage flips every byte and tries every truncation of
// a valid encoding: each must be rejected (the CRC trailer catches all
// single-byte damage), and none may panic.
func TestStateRejectsDamage(t *testing.T) {
	enc := sampleState(100).Encode()
	for n := 0; n < len(enc); n++ {
		if _, err := checkpoint.Decode(enc[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0xFF
		if _, err := checkpoint.Decode(bad); err == nil {
			t.Fatalf("flipping byte %d decoded successfully", i)
		}
	}
	if _, err := checkpoint.Decode(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("trailing garbage decoded successfully")
	}
}

// TestDecodeBloomEraState reads a state file written while the seen set
// still had a Bloom tier: testdata/state-with-bloom.ckpt is
// sampleState(100) as that encoder wrote it, with deadbeef in the slot
// that now stays empty. A checkpoint left by that version must decode
// to the same state and restore a seen set that answers exactly as it
// did.
func TestDecodeBloomEraState(t *testing.T) {
	enc, err := os.ReadFile("testdata/state-with-bloom.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := checkpoint.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleState(100)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("decoded state differs:\nwant %+v\ngot  %+v", want, got)
	}
	s := checkpoint.NewSeen()
	s.Restore(got.VisitedURLs)
	for _, u := range want.VisitedURLs {
		if !s.Has(u) {
			t.Errorf("restored set lost %s", u)
		}
	}
	for _, u := range []string{"http://h0.example/a", "http://h1.example/b", "http://never.example/"} {
		if s.Has(u) {
			t.Errorf("restored set claims unseen %s", u)
		}
	}
	if s.Len() != len(want.VisitedURLs) || !reflect.DeepEqual(s.URLs(), want.VisitedURLs) {
		t.Errorf("restored set holds %v, want %v", s.URLs(), want.VisitedURLs)
	}
}

func TestSeen(t *testing.T) {
	s := checkpoint.NewSeen()
	urls := []string{"http://b/", "http://a/", "http://c/x"}
	for _, u := range urls {
		if s.Has(u) {
			t.Fatalf("%s seen before Add", u)
		}
		s.Add(u)
	}
	s.Add(urls[0]) // duplicate must not double-count
	if s.Len() != len(urls) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(urls))
	}
	want := []string{"http://a/", "http://b/", "http://c/x"}
	if got := s.URLs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("URLs = %v, want sorted %v", got, want)
	}

	restored := checkpoint.NewSeen()
	restored.Restore(s.URLs())
	for _, u := range urls {
		if !restored.Has(u) {
			t.Fatalf("%s lost across Restore", u)
		}
	}
	if restored.Has("http://never/") {
		t.Fatal("restored set claims an unseen URL")
	}
}

// TestCheckpointerSequence pins the commit protocol on the real
// filesystem: numbering, stale-file cleanup, and seq continuation when
// a new Checkpointer opens an existing directory.
func TestCheckpointerSequence(t *testing.T) {
	dir := t.TempDir()
	ckp, err := checkpoint.New(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ckp.Write(sampleState(10)); err != nil {
		t.Fatal(err)
	}
	if err := ckp.Write(sampleState(20)); err != nil {
		t.Fatal(err)
	}
	st, man, err := checkpoint.Load(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if man.Seq != 2 || st.Crawled != 20 {
		t.Fatalf("loaded seq %d crawled %d, want 2/20", man.Seq, st.Crawled)
	}
	names, err := checkpoint.OSFS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if strings.HasPrefix(n, "state-") && n != man.StateFile {
			t.Errorf("superseded state file %s not cleaned up", n)
		}
	}

	reopened, err := checkpoint.New(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Seq() != 2 {
		t.Fatalf("reopened seq %d, want 2", reopened.Seq())
	}
	if err := reopened.Write(sampleState(30)); err != nil {
		t.Fatal(err)
	}
	if _, man, _ := checkpoint.Load(dir, nil); man.Seq != 3 {
		t.Fatalf("after reopen+write seq %d, want 3", man.Seq)
	}
}

func TestLoadEmptyDir(t *testing.T) {
	st, man, err := checkpoint.Load(t.TempDir(), nil)
	if err != nil || st != nil || man != nil {
		t.Fatalf("empty dir: got %v/%v/%v, want all nil", st, man, err)
	}
	if _, _, err := checkpoint.Load(filepath.Join(t.TempDir(), "missing"), nil); err != nil {
		t.Fatalf("missing dir is not 'no checkpoint': %v", err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	fsys := checkpoint.OSFS{}
	path := filepath.Join(t.TempDir(), "f")
	for _, content := range []string{"first", "second longer content"} {
		if err := checkpoint.WriteFileAtomic(fsys, path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		got, err := fsys.ReadFile(path)
		if err != nil || string(got) != content {
			t.Fatalf("read back %q (%v), want %q", got, err, content)
		}
	}
	if _, err := fsys.Stat(path + ".tmp"); err == nil {
		t.Fatal("temp file left behind")
	}
}

// seedCheckpoint writes one durable checkpoint into fs under dir and
// returns the Checkpointer for further writes.
func seedCheckpoint(t *testing.T, fs *faults.CrashFS, dir string, st *checkpoint.State) *checkpoint.Checkpointer {
	t.Helper()
	ckp, err := checkpoint.New(dir, fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ckp.Write(st); err != nil {
		t.Fatal(err)
	}
	return ckp
}

// writeTail writes durable content to path on fs.
func writeTail(t *testing.T, fs *faults.CrashFS, path string, data []byte) {
	t.Helper()
	f, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := fs.SyncDir(filepath.Dir(path)); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverCrawlTruncation drives RecoverCrawl's tail handling: bytes
// past the checkpointed position are cut and their complete records
// counted; a file shorter than its checkpointed position is a hard
// error, as is a missing file the manifest vouches bytes for.
func TestRecoverCrawlTruncation(t *testing.T) {
	pairScan := func(tail []byte) (int, int) { return len(tail) / 2, len(tail) / 2 * 2 }

	fs := faults.NewCrashFS()
	st := sampleState(10)
	st.LogPos = 4
	seedCheckpoint(t, fs, "ck", st)
	writeTail(t, fs, "crawl.log", []byte("aaaabbbbb")) // 4 durable + 5 tail (2 records + torn byte)

	rec, err := checkpoint.RecoverCrawl("ck", fs, nil,
		checkpoint.TailFile{Path: "crawl.log", Pos: 4, Scan: pairScan})
	if err != nil {
		t.Fatal(err)
	}
	if rec.TruncatedBytes != 5 || rec.TruncatedRecords != 2 {
		t.Fatalf("truncated %d bytes / %d records, want 5/2", rec.TruncatedBytes, rec.TruncatedRecords)
	}
	if size, _ := fs.Stat("crawl.log"); size != 4 {
		t.Fatalf("log is %d bytes after recovery, want 4", size)
	}

	// Second recovery: nothing left to cut.
	rec, err = checkpoint.RecoverCrawl("ck", fs, nil,
		checkpoint.TailFile{Path: "crawl.log", Pos: 4, Scan: pairScan})
	if err != nil || rec.TruncatedBytes != 0 {
		t.Fatalf("idempotent recovery cut %d bytes (%v), want 0", rec.TruncatedBytes, err)
	}

	// A file shorter than its durable position is damage.
	if err := fs.Truncate("crawl.log", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.RecoverCrawl("ck", fs, nil,
		checkpoint.TailFile{Path: "crawl.log", Pos: 4, Scan: pairScan}); err == nil {
		t.Fatal("short file accepted")
	}
	// So is a missing one — unless the checkpoint never promised bytes.
	if err := fs.Remove("crawl.log"); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.RecoverCrawl("ck", fs, nil,
		checkpoint.TailFile{Path: "crawl.log", Pos: 4, Scan: pairScan}); err == nil {
		t.Fatal("missing file accepted despite a durable position")
	}
	if _, err := checkpoint.RecoverCrawl("ck", fs, nil,
		checkpoint.TailFile{Path: "crawl.log", Pos: 0, Scan: pairScan}); err != nil {
		t.Fatalf("missing file with pos 0 should be fine: %v", err)
	}
}

// FuzzCheckpointRecover throws arbitrary bytes at both recovery
// surfaces — the state codec and the manifest loader — asserting no
// panic, and that anything Decode accepts survives a re-encode round
// trip unchanged.
func FuzzCheckpointRecover(f *testing.F) {
	f.Add(sampleState(100).Encode())
	f.Add([]byte{})
	f.Add([]byte("LCCKPT1\n"))
	f.Add([]byte(`{"version":1,"seq":1,"state_file":"state-00000001.ckpt"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if st, err := checkpoint.Decode(data); err == nil {
			again, err := checkpoint.Decode(st.Encode())
			if err != nil {
				t.Fatalf("re-encode of accepted state rejected: %v", err)
			}
			if !reflect.DeepEqual(st, again) {
				t.Fatalf("re-encode round trip changed the state")
			}
		}
		fs := faults.NewCrashFS()
		if err := fs.MkdirAll("ck"); err != nil {
			t.Fatal(err)
		}
		writeTail(t, fs, filepath.Join("ck", checkpoint.ManifestName), data)
		// Arbitrary manifest bytes must produce a clean load, a clean
		// "no checkpoint", or an error — never a panic.
		_, _, _ = checkpoint.Load("ck", fs)
	})
}
