package checkpoint_test

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"langcrawl/internal/binfmt"
	"langcrawl/internal/checkpoint"
	"langcrawl/internal/faults"
)

// craft frames an arbitrary payload as a state file with a *valid* CRC
// trailer, so Decode gets past the checksum and into the field decoder
// — the only way to exercise its structural rejection paths (random
// damage is caught by the CRC long before).
func craft(payload []byte) []byte {
	out := append([]byte("LCCKPT1\n"), payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

// u appends each value as a uvarint.
func u(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// stateHead is a minimal valid header: kind byte, empty strategy, the six
// zero counters Crawled through MaxQueue — the prefix every structural
// case below builds on, ending right before the frontier count.
func stateHead() []byte { return append([]byte{0}, u(0, 0, 0, 0, 0, 0, 0)...) }

func TestDecodeMalformedPayloads(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
		want    error // the field-level failure under ErrCorruptState; nil for none
	}{
		{"empty payload", nil, nil}, // refused by the framing check
		{"kind byte only", []byte{0}, binfmt.ErrTruncated},
		{"truncated varint", append([]byte{0}, 0x80), binfmt.ErrTruncated}, // continuation bit, no next byte
		{"string length past end", append([]byte{0}, u(5, 'a', 'b')...), binfmt.ErrCount},
		{"frontier count absurd", append(stateHead(), u(1<<30)...), binfmt.ErrCount},
		// A 9-byte URL brings the entry to the 12 bytes the frontier count
		// asks of one entry, so the read fails at the priority itself.
		{"frontier entry missing float", append(append(stateHead(), u(1, 9)...), "xxxxxxxxx\x07\x04"...), binfmt.ErrTruncated},
		{"visited bits length past end", append(stateHead(), u(0, 0, 9, 1<<20)...), binfmt.ErrCount},
		{"overlong counter", append([]byte{0, 0}, 0x80, 0x00), binfmt.ErrVarint},
		{"bool byte 2", append(append(stateHead(), u(1, 0, 7, 4)...), 0, 0, 0, 0, 0, 0, 0, 0, 2), binfmt.ErrBool},
		{"trailing garbage after valid state", append(stripFrame(sampleState(5).Encode()), 0), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := checkpoint.Decode(craft(tc.payload))
			if !errors.Is(err, checkpoint.ErrCorruptState) {
				t.Fatalf("Decode accepted malformed payload (err=%v)", err)
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("Decode failed with %v, want %v", err, tc.want)
			}
		})
	}
}

// TestDecodeBoundsAllocation: a 23-byte state with a valid CRC whose
// frontier count claims 1<<20 entries is refused before the frontier is
// sized from the claim.
func TestDecodeBoundsAllocation(t *testing.T) {
	enc := craft(append(stateHead(), u(1<<20)...))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := checkpoint.Decode(enc)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Errorf("Decode of a %d-byte state allocated %d bytes", len(enc), n)
	}
	if !errors.Is(err, checkpoint.ErrCorruptState) {
		t.Errorf("Decode accepted a frontier of 1<<20 entries in 3 bytes (err=%v)", err)
	}
}

// stripFrame removes the magic and CRC trailer, leaving the payload.
func stripFrame(enc []byte) []byte {
	return append([]byte(nil), enc[len("LCCKPT1\n"):len(enc)-4]...)
}

// TestRecoverCrawlOSFS runs the recovery path against the real
// filesystem: the torn tail of an append-only file is truncated with a
// real fsync, read back with a real seek — the production half of what
// the CrashFS sweeps prove in memory.
func TestRecoverCrawlOSFS(t *testing.T) {
	dir := t.TempDir()
	ckDir := filepath.Join(dir, "ck")
	ckp, err := checkpoint.New(ckDir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := ckp.Dir(); got != ckDir {
		t.Fatalf("Dir() = %q, want %q", got, ckDir)
	}
	st := sampleState(10)
	st.LogPos = 4
	if err := ckp.Write(st); err != nil {
		t.Fatal(err)
	}
	log := filepath.Join(dir, "crawl.log")
	if err := os.WriteFile(log, []byte("aaaabbbbb"), 0o644); err != nil {
		t.Fatal(err)
	}
	pairScan := func(tail []byte) (int, int) { return len(tail) / 2, len(tail) / 2 * 2 }

	rec, err := checkpoint.RecoverCrawl(ckDir, nil, nil,
		checkpoint.TailFile{Path: log, Pos: 4, Scan: pairScan},
		checkpoint.TailFile{}) // empty path: skipped
	if err != nil {
		t.Fatal(err)
	}
	if rec.TruncatedBytes != 5 || rec.TruncatedRecords != 2 {
		t.Fatalf("truncated %d bytes / %d records, want 5/2", rec.TruncatedBytes, rec.TruncatedRecords)
	}
	data, err := os.ReadFile(log)
	if err != nil || string(data) != "aaaa" {
		t.Fatalf("log after recovery: %q (%v), want aaaa", data, err)
	}
	// Missing file with a durable position is damage on the real FS too.
	if err := os.Remove(log); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.RecoverCrawl(ckDir, nil, nil,
		checkpoint.TailFile{Path: log, Pos: 4, Scan: pairScan}); err == nil {
		t.Fatal("missing file accepted despite a durable position")
	}
}

// TestLoadDamagedManifest covers operator-visible damage the commit
// protocol never produces itself: garbage JSON, path-traversal state
// names, manifests vouching for missing or mismatched state files.
func TestLoadDamagedManifest(t *testing.T) {
	write := func(t *testing.T, dir, name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("garbage json", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, checkpoint.ManifestName, "{not json")
		if _, _, err := checkpoint.Load(dir, nil); err == nil {
			t.Fatal("garbage manifest accepted")
		}
	})
	t.Run("state name with path separator", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, checkpoint.ManifestName, `{"version":1,"seq":1,"state_file":"../evil"}`)
		if _, _, err := checkpoint.Load(dir, nil); err == nil {
			t.Fatal("path-traversal state name accepted")
		}
	})
	t.Run("missing state file", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, checkpoint.ManifestName, `{"version":1,"seq":1,"state_file":"state-00000001.ckpt"}`)
		if _, _, err := checkpoint.Load(dir, nil); err == nil {
			t.Fatal("manifest naming a missing state file accepted")
		}
	})
	t.Run("state file does not match manifest", func(t *testing.T) {
		dir := t.TempDir()
		ckp, err := checkpoint.New(dir, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := ckp.Write(sampleState(10)); err != nil {
			t.Fatal(err)
		}
		_, man, err := checkpoint.Load(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Another *valid* state under the same name, so size/CRC disagree
		// with the manifest's record of what was committed.
		write(t, dir, man.StateFile, string(sampleState(99).Encode()))
		if _, _, err := checkpoint.Load(dir, nil); !errors.Is(err, checkpoint.ErrCorruptState) {
			t.Fatalf("swapped state file accepted (err=%v)", err)
		}
	})
}

// TestWriteErrorPropagation sweeps an op budget over New+Write without
// a crash: every failing budget must surface ErrInjected to the caller
// (no swallowed I/O errors) and leave the directory loadable — either
// checkpoint, never garbage.
func TestWriteErrorPropagation(t *testing.T) {
	for n := 0; ; n++ {
		if n > 500 {
			t.Fatal("write still failing after 500 ops — sweep is not terminating")
		}
		fs := faults.NewCrashFS()
		fs.SetOpBudget(n)
		ckp, err := checkpoint.New("ck", fs, nil)
		if err != nil {
			if !errors.Is(err, faults.ErrInjected) {
				t.Fatalf("op budget %d: unexpected New error: %v", n, err)
			}
			continue
		}
		werr := ckp.Write(sampleState(10))
		if werr == nil {
			st, man, err := checkpoint.Load("ck", fs)
			if err != nil || st == nil || man.Seq != 1 {
				t.Fatalf("op budget %d: load after clean write: %v/%v/%v", n, st, man, err)
			}
			return
		}
		if !errors.Is(werr, faults.ErrInjected) {
			t.Fatalf("op budget %d: unexpected write error: %v", n, werr)
		}
		// No crash happened, but the failed write must not have corrupted
		// the directory: Load sees either nothing or a complete checkpoint.
		st, man, err := checkpoint.Load("ck", fs)
		if err != nil {
			t.Fatalf("op budget %d: load after failed write: %v", n, err)
		}
		if st != nil && (man.Seq != 1 || st.Crawled != 10) {
			t.Fatalf("op budget %d: torn checkpoint visible: seq %d crawled %d", n, man.Seq, st.Crawled)
		}
	}
}
