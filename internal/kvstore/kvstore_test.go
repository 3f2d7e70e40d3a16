package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"
)

func openTemp(t *testing.T) *Store {
	t.Helper()
	s, err := Dir(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGet(t *testing.T) {
	s := openTemp(t)
	if err := s.Put("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("k1")
	if err != nil || string(got) != "v1" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if _, err := s.Get("absent"); err != ErrNotFound {
		t.Errorf("Get absent = %v, want ErrNotFound", err)
	}
}

func TestOverwrite(t *testing.T) {
	s := openTemp(t)
	s.Put("k", []byte("old"))
	s.Put("k", []byte("new value longer"))
	got, err := s.Get("k")
	if err != nil || string(got) != "new value longer" {
		t.Fatalf("Get after overwrite = %q, %v", got, err)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.DeadBytes() == 0 {
		t.Error("overwrite should accumulate dead bytes")
	}
}

func TestDelete(t *testing.T) {
	s := openTemp(t)
	s.Put("k", []byte("v"))
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k"); err != ErrNotFound {
		t.Errorf("Get after delete = %v", err)
	}
	if s.Has("k") {
		t.Error("Has after delete")
	}
	if err := s.Delete("never-existed"); err != nil {
		t.Errorf("Delete of absent key should be a no-op, got %v", err)
	}
}

func TestEmptyValueAndKey(t *testing.T) {
	s := openTemp(t)
	if err := s.Put("k", nil); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("k")
	if err != nil || len(got) != 0 {
		t.Errorf("empty value round trip: %q, %v", got, err)
	}
	if err := s.Put("", []byte("empty key")); err != nil {
		t.Fatal(err)
	}
	got, err = s.Get("")
	if err != nil || string(got) != "empty key" {
		t.Errorf("empty key round trip: %q, %v", got, err)
	}
}

func TestReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.kv")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("val-%d", i)))
	}
	s.Delete("key-50")
	s.Put("key-60", []byte("updated"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 99 {
		t.Errorf("Len after reopen = %d, want 99", s2.Len())
	}
	if _, err := s2.Get("key-50"); err != ErrNotFound {
		t.Error("deleted key resurrected after reopen")
	}
	got, err := s2.Get("key-60")
	if err != nil || string(got) != "updated" {
		t.Errorf("key-60 = %q, %v", got, err)
	}
	got, err = s2.Get("key-7")
	if err != nil || string(got) != "val-7" {
		t.Errorf("key-7 = %q, %v", got, err)
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.kv")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("good-1", []byte("v1"))
	s.Put("good-2", []byte("v2"))
	s.Close()

	// Simulate a torn write: append garbage that looks like a partial record.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xDE, 0xAD, 0xBE})
	f.Close()

	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Errorf("Len after torn-tail recovery = %d, want 2", s2.Len())
	}
	// The store must be writable after recovery and reopen cleanly again.
	if err := s2.Put("good-3", []byte("v3")); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 3 {
		t.Errorf("Len after second reopen = %d, want 3", s3.Len())
	}
}

// TestHeaderPastEndBoundsAllocation: a torn tail whose record header
// claims a 256 MiB value in a 10-byte file tail (CRC 0, key length 0,
// value field 1<<28) is refused before the body is sized from the claim,
// both by ScanTail and by the recovery scan Open runs.
func TestHeaderPastEndBoundsAllocation(t *testing.T) {
	tail := binary.AppendUvarint([]byte{0, 0, 0, 0, 0}, 1<<28)
	var records, valid int
	if n := bytesAllocated(func() { records, valid = ScanTail(tail) }); n >= 64<<10 {
		t.Errorf("ScanTail of a %d-byte tail allocated %d bytes", len(tail), n)
	}
	if records != 0 || valid != 0 {
		t.Errorf("ScanTail = %d records, %d bytes; want none", records, valid)
	}

	path := filepath.Join(t.TempDir(), "s.kv")
	if err := os.WriteFile(path, append([]byte(header), tail...), 0o644); err != nil {
		t.Fatal(err)
	}
	var s *Store
	var err error
	// Open's own reader and writer buffers take 64 KiB each.
	if n := bytesAllocated(func() { s, err = Open(path, Options{}) }); n >= 256<<10 {
		t.Errorf("Open over a %d-byte torn tail allocated %d bytes", len(tail), n)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 0 || s.Offset() != int64(HeaderSize) {
		t.Errorf("recovered %d keys up to offset %d, want none up to %d", s.Len(), s.Offset(), HeaderSize)
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

func TestCorruptMiddleRecordTruncates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.kv")
	s, _ := Open(path, Options{})
	s.Put("a", []byte("aaaa"))
	s.Put("b", []byte("bbbb"))
	s.Put("c", []byte("cccc"))
	s.Close()

	// Flip a byte in the middle record's value region.
	data, _ := os.ReadFile(path)
	data[len(magic)+15] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// Everything from the corrupt record onward is lost; "a" may or may
	// not survive depending on where the flip landed, but the store must
	// open and must not return corrupt data for any key it kept.
	for _, k := range s2.Keys() {
		if _, err := s2.Get(k); err != nil {
			t.Errorf("Get(%q) after corruption recovery: %v", k, err)
		}
	}
	if s2.Len() >= 3 {
		t.Errorf("corruption should lose at least the damaged suffix, Len = %d", s2.Len())
	}
}

func TestOpenRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "not-a-store")
	os.WriteFile(path, []byte("something else entirely"), 0o644)
	if _, err := Open(path, Options{}); err == nil {
		t.Error("Open of a non-store file should fail")
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.kv")
	s, _ := Open(path, Options{})
	for i := 0; i < 200; i++ {
		s.Put("churn", []byte(fmt.Sprintf("version-%d", i)))
		s.Put(fmt.Sprintf("stable-%d", i%10), []byte("x"))
	}
	s.Delete("stable-0")
	s.Flush()
	before, _ := os.Stat(path)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Errorf("compact did not shrink: %d -> %d", before.Size(), after.Size())
	}
	if s.DeadBytes() != 0 {
		t.Errorf("DeadBytes after compact = %d", s.DeadBytes())
	}
	got, err := s.Get("churn")
	if err != nil || string(got) != "version-199" {
		t.Errorf("churn = %q, %v", got, err)
	}
	if _, err := s.Get("stable-0"); err != ErrNotFound {
		t.Error("deleted key present after compact")
	}
	// Store stays usable and reopens cleanly after compaction.
	s.Put("post-compact", []byte("y"))
	s.Close()
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, err := s2.Get("post-compact"); err != nil || string(got) != "y" {
		t.Errorf("post-compact after reopen = %q, %v", got, err)
	}
	if s2.Len() != 11 { // churn + stable-1..9 + post-compact
		t.Errorf("Len after compact+reopen = %d, want 11", s2.Len())
	}
}

func TestClosedOperationsFail(t *testing.T) {
	s := openTemp(t)
	s.Close()
	if err := s.Put("k", nil); err != ErrClosed {
		t.Errorf("Put on closed = %v", err)
	}
	if _, err := s.Get("k"); err != ErrClosed {
		t.Errorf("Get on closed = %v", err)
	}
	if err := s.Delete("k"); err != ErrClosed {
		t.Errorf("Delete on closed = %v", err)
	}
	if err := s.Compact(); err != ErrClosed {
		t.Errorf("Compact on closed = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double Close = %v", err)
	}
}

func TestKeysSorted(t *testing.T) {
	s := openTemp(t)
	for _, k := range []string{"zebra", "apple", "mango"} {
		s.Put(k, []byte("x"))
	}
	keys := s.Keys()
	want := []string{"apple", "mango", "zebra"}
	if len(keys) != 3 {
		t.Fatalf("Keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Errorf("Keys[%d] = %q, want %q", i, keys[i], want[i])
		}
	}
}

func TestSyncOption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(filepath.Join(dir, "s.kv"), Options{SyncEveryPut: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("k", []byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
}

// Property: a random sequence of puts and deletes, mirrored into a map,
// leaves the store and the map in agreement — both live and after reopen.
func TestModelBasedQuick(t *testing.T) {
	type op struct {
		Key    uint8
		Val    []byte
		Delete bool
	}
	dir := t.TempDir()
	seq := 0
	f := func(ops []op) bool {
		seq++
		path := filepath.Join(dir, fmt.Sprintf("model-%d.kv", seq))
		s, err := Open(path, Options{})
		if err != nil {
			return false
		}
		model := make(map[string][]byte)
		for _, o := range ops {
			k := fmt.Sprintf("key-%d", o.Key%16)
			if o.Delete {
				if s.Delete(k) != nil {
					return false
				}
				delete(model, k)
			} else {
				if s.Put(k, o.Val) != nil {
					return false
				}
				model[k] = o.Val
			}
		}
		check := func(st *Store) bool {
			if st.Len() != len(model) {
				return false
			}
			for k, v := range model {
				got, err := st.Get(k)
				if err != nil || !bytes.Equal(got, v) {
					return false
				}
			}
			return true
		}
		if !check(s) {
			return false
		}
		s.Close()
		s2, err := Open(path, Options{})
		if err != nil {
			return false
		}
		defer s2.Close()
		return check(s2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
