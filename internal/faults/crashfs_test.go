package faults

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"langcrawl/internal/checkpoint"
)

// ckState builds a small but non-trivial checkpoint state for driving
// the commit protocol across CrashFS.
func ckState(crawled int) *checkpoint.State {
	return &checkpoint.State{
		Kind:     checkpoint.KindSim,
		Strategy: "bfs",
		Crawled:  crawled,
		Relevant: crawled / 2,
		Frontier: []checkpoint.Entry{
			{URL: "http://h0.example/a", ID: 7, Dist: -2, Prio: 0.25},
		},
		VisitedBits: []byte{0b101}, // pages 0 and 2, LSB first
		VisitedN:    3,
	}
}

// seedCheckpoint writes one durable checkpoint into fs under dir and
// returns the Checkpointer for further writes.
func seedCheckpoint(t *testing.T, fs *CrashFS, dir string, st *checkpoint.State) *checkpoint.Checkpointer {
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

// TestCrashAtEveryOp kills the filesystem at every operation count
// during a checkpoint write, crashes, and requires Load to return a
// complete checkpoint — the old one or the new one, never an error and
// never a torn mixture. The sweep ends at the budget that lets the
// write complete, at which point the new checkpoint must survive the
// crash (its syncs all happened).
func TestCrashAtEveryOp(t *testing.T) {
	for n := 0; ; n++ {
		if n > 500 {
			t.Fatal("checkpoint write still failing after 500 ops — sweep is not terminating")
		}
		fs := NewCrashFS()
		ckp := seedCheckpoint(t, fs, "ck", ckState(10))
		fs.SetOpBudget(n)
		werr := ckp.Write(ckState(20))
		fs.Crash()
		st, man, err := checkpoint.Load("ck", fs)
		if err != nil {
			t.Fatalf("op budget %d: load after crash: %v", n, err)
		}
		if st == nil {
			t.Fatalf("op budget %d: checkpoint lost entirely", n)
		}
		if !(man.Seq == 1 && st.Crawled == 10) && !(man.Seq == 2 && st.Crawled == 20) {
			t.Fatalf("op budget %d: torn checkpoint: seq %d crawled %d", n, man.Seq, st.Crawled)
		}
		if werr == nil {
			if man.Seq != 2 {
				t.Fatalf("write succeeded at op budget %d but the old checkpoint survived the crash", n)
			}
			return
		}
		if !errors.Is(werr, ErrInjected) {
			t.Fatalf("op budget %d: unexpected write error: %v", n, werr)
		}
	}
}

// TestCrashAtEveryWriteByte tears the write stream at every byte
// position instead: whatever prefix of the new state or manifest made
// it down, the crash must leave the previous checkpoint loadable.
func TestCrashAtEveryWriteByte(t *testing.T) {
	for m := 0; ; m++ {
		if m > 10_000 {
			t.Fatal("checkpoint write still failing after 10000 bytes — sweep is not terminating")
		}
		fs := NewCrashFS()
		ckp := seedCheckpoint(t, fs, "ck", ckState(10))
		fs.SetWriteBudget(m)
		werr := ckp.Write(ckState(20))
		fs.Crash()
		st, man, err := checkpoint.Load("ck", fs)
		if err != nil || st == nil {
			t.Fatalf("write budget %d: load after crash: state %v err %v", m, st, err)
		}
		if werr == nil {
			if man.Seq != 2 || st.Crawled != 20 {
				t.Fatalf("write succeeded at byte budget %d but loaded seq %d crawled %d", m, man.Seq, st.Crawled)
			}
			return
		}
		if man.Seq != 1 || st.Crawled != 10 {
			t.Fatalf("write budget %d: torn write surfaced: seq %d crawled %d", m, man.Seq, st.Crawled)
		}
	}
}

// TestCrashDropSyncs models the lying disk: every Sync/SyncDir reports
// success without conferring durability, the write "succeeds", the
// machine dies. The previous checkpoint must still load — the protocol
// may lose the unsynced new checkpoint but never the old one.
func TestCrashDropSyncs(t *testing.T) {
	fs := NewCrashFS()
	ckp := seedCheckpoint(t, fs, "ck", ckState(10))
	fs.SetDropSyncs(true)
	if err := ckp.Write(ckState(20)); err != nil {
		t.Fatalf("write under dropped syncs should report success: %v", err)
	}
	fs.Crash()
	st, man, err := checkpoint.Load("ck", fs)
	if err != nil || st == nil {
		t.Fatalf("load after sync-dropping crash: state %v err %v", st, err)
	}
	if man.Seq != 1 || st.Crawled != 10 {
		t.Fatalf("expected the old checkpoint back, got seq %d crawled %d", man.Seq, st.Crawled)
	}
}

// write is a test shorthand: create path, write data, optionally sync
// the contents, and close.
func write(t *testing.T, fs *CrashFS, path string, data []byte, sync bool) {
	t.Helper()
	f, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashFSDurabilityRules pins the model itself: file contents are
// durable up to the last Sync, namespace changes up to the parent's
// last SyncDir, and Crash discards exactly the rest.
func TestCrashFSDurabilityRules(t *testing.T) {
	fs := NewCrashFS()
	if err := fs.MkdirAll("d/sub"); err != nil {
		t.Fatal(err)
	}

	// synced content + synced name: survives.
	write(t, fs, "d/kept", []byte("kept-content"), true)
	// synced name, half-synced content: cut to the synced prefix.
	f, err := fs.Create("d/torn")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("-volatile")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := fs.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	// unsynced name: gone entirely.
	write(t, fs, "d/lost", []byte("never-synced-dir"), true)

	fs.Crash()

	if got, err := fs.ReadFile("d/kept"); err != nil || string(got) != "kept-content" {
		t.Fatalf("synced file after crash: %q, %v", got, err)
	}
	if got, err := fs.ReadFile("d/torn"); err != nil || string(got) != "durable" {
		t.Fatalf("half-synced file after crash: %q, want synced prefix only (%v)", got, err)
	}
	if fs.Exists("d/lost") {
		t.Fatal("file with unsynced directory entry survived the crash")
	}
}

// TestCrashFSRenameRemoveRollback crashes with pending renames and
// removes in the journal: both must roll back to the pre-op namespace,
// newest first, while a SyncDir freezes them permanently.
func TestCrashFSRenameRemoveRollback(t *testing.T) {
	fs := NewCrashFS()
	write(t, fs, "a", []byte("A"), true)
	write(t, fs, "b", []byte("B"), true)
	if err := fs.SyncDir("."); err != nil {
		t.Fatal(err)
	}

	// Unsynced rename over an existing file, then unsynced remove.
	if err := fs.Rename("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("a") || fs.Exists("b") {
		t.Fatal("namespace ops not visible before crash")
	}
	fs.Crash()
	if got, _ := fs.ReadFile("a"); string(got) != "A" {
		t.Fatalf("a after rollback: %q, want A", got)
	}
	if got, _ := fs.ReadFile("b"); string(got) != "B" {
		t.Fatalf("b after rollback: %q, want B", got)
	}

	// The same sequence with a SyncDir is durable.
	if err := fs.Rename("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir("."); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	if fs.Exists("a") {
		t.Fatal("synced rename rolled back")
	}
	if got, _ := fs.ReadFile("b"); string(got) != "A" {
		t.Fatalf("b after synced rename: %q, want A", got)
	}
}

// TestCrashFSErrors covers the error surface: ops on missing files and
// directories, reads beyond the end, and use after Close.
func TestCrashFSErrors(t *testing.T) {
	fs := NewCrashFS()
	if _, err := fs.Create("nodir/f"); err == nil {
		t.Fatal("create in a missing directory succeeded")
	}
	if err := fs.Rename("missing", "other"); err == nil {
		t.Fatal("rename of a missing file succeeded")
	}
	if err := fs.Remove("missing"); err == nil {
		t.Fatal("remove of a missing file succeeded")
	}
	if _, err := fs.ReadFile("missing"); err == nil {
		t.Fatal("read of a missing file succeeded")
	}
	if _, err := fs.ReadFileAt("missing", 0); err == nil {
		t.Fatal("readAt of a missing file succeeded")
	}
	if _, err := fs.Stat("missing"); err == nil {
		t.Fatal("stat of a missing file succeeded")
	}
	if err := fs.Truncate("missing", 0); err == nil {
		t.Fatal("truncate of a missing file succeeded")
	}
	if _, err := fs.ReadDir("nodir"); err == nil {
		t.Fatal("readdir of a missing directory succeeded")
	}

	write(t, fs, "f", []byte("abcdef"), true)
	if got, err := fs.ReadFileAt("f", 4); err != nil || string(got) != "ef" {
		t.Fatalf("ReadFileAt(4) = %q, %v", got, err)
	}
	if _, err := fs.ReadFileAt("f", 7); err == nil {
		t.Fatal("read beyond the end succeeded")
	}
	if err := fs.Truncate("f", 99); err == nil {
		t.Fatal("truncate beyond the end succeeded")
	}
	if err := fs.Truncate("f", 2); err != nil {
		t.Fatal(err)
	}
	if size, _ := fs.Stat("f"); size != 2 {
		t.Fatalf("size after truncate: %d, want 2", size)
	}

	f, err := fs.Create("g")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := f.Write([]byte("x")); err == nil {
		t.Fatal("write on a closed file succeeded")
	}
	if err := f.Sync(); err == nil {
		t.Fatal("sync on a closed file succeeded")
	}
}

// TestCrashFSReadDir lists files and subdirectories of one level only,
// sorted by name.
func TestCrashFSReadDir(t *testing.T) {
	fs := NewCrashFS()
	if err := fs.MkdirAll(filepath.Join("top", "inner")); err != nil {
		t.Fatal(err)
	}
	write(t, fs, "top/zz", nil, true)
	write(t, fs, "top/aa", nil, true)
	write(t, fs, "top/inner/deep", nil, true)
	names, err := fs.ReadDir("top")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"aa", "inner", "zz"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("ReadDir = %v, want %v", names, want)
	}
}

// TestBreakerSnapshotRoundTrip drives a BreakerSet into a mixed state,
// snapshots it in checkpoint form, and requires the restored set to
// snapshot identically — the property the crash-resume path depends
// on.
func TestBreakerSnapshotRoundTrip(t *testing.T) {
	cfg := BreakerConfig{Threshold: 2, Cooldown: 10, Probes: 2}
	set := NewBreakerSet(cfg)
	// h0: tripped open. h1: one failure, still closed. h2: untouched.
	b0 := set.Get("h0")
	b0.RecordFailure(1)
	b0.RecordFailure(2)
	set.Get("h1").RecordFailure(3)
	set.Get("h2")
	if set.Open() != 1 || set.Trips() != 1 {
		t.Fatalf("setup: %d open / %d trips, want 1/1", set.Open(), set.Trips())
	}

	snaps := set.Snapshot()
	if len(snaps) != 3 || snaps[0].Host != "h0" || snaps[2].Host != "h2" {
		t.Fatalf("snapshot not sorted by host: %+v", snaps)
	}
	restored := NewBreakerSet(cfg)
	restored.Restore(snaps)
	if !reflect.DeepEqual(restored.Snapshot(), snaps) {
		t.Fatalf("restored set snapshots differently:\nwant %+v\ngot  %+v", snaps, restored.Snapshot())
	}
	// The restored open breaker still honors its original cooldown.
	if restored.Get("h0").Allow(5) {
		t.Fatal("restored open breaker let a request through before cooldown")
	}
	if !restored.Get("h0").Allow(13) {
		t.Fatal("restored open breaker refused the half-open probe after cooldown")
	}
}

func TestBreakerConfigEnabledAndStrings(t *testing.T) {
	if (BreakerConfig{}).Enabled() {
		t.Fatal("zero config reports enabled")
	}
	if !(BreakerConfig{Threshold: 1}).Enabled() {
		t.Fatal("non-zero config reports disabled")
	}
	def := BreakerConfig{}.WithDefaults()
	if def.Threshold != 5 || def.Cooldown != 30 || def.Probes != 1 {
		t.Fatalf("WithDefaults = %+v", def)
	}
	for state, want := range map[BreakerState]string{
		Closed: "closed", Open: "open", HalfOpen: "half-open", BreakerState(99): "unknown",
	} {
		if got := state.String(); got != want {
			t.Errorf("BreakerState(%d).String() = %q, want %q", state, got, want)
		}
	}
}
