package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"langcrawl/internal/telemetry"
)

// ManifestName is the fixed manifest filename inside a checkpoint dir.
const ManifestName = "MANIFEST.json"

// Manifest names the consistent checkpoint file set. It is the commit
// record: a state file exists durably *before* the manifest that points
// at it is renamed into place, so whatever manifest Load finds always
// references a complete state. No wall-clock fields — manifests must be
// byte-deterministic for the conformance suite's replay comparisons.
type Manifest struct {
	Version   int    `json:"version"`
	Seq       uint64 `json:"seq"`
	StateFile string `json:"state_file"`
	StateCRC  uint32 `json:"state_crc"`
	StateSize int64  `json:"state_size"`
	LogPos    int64  `json:"log_pos"`
	DBPos     int64  `json:"db_pos"`
	Crawled   int    `json:"crawled"`
}

// ErrKilled is the sentinel the engines return when Config.StopAfter
// made them die mid-crawl on purpose — the kill-resume suite's stand-in
// for SIGKILL. A run that returns it has skipped its final checkpoint
// and frontier save, exactly as a killed process would.
var ErrKilled = errors.New("checkpoint: crawl stopped by StopAfter (simulated kill)")

// Checkpointer writes numbered checkpoints into one directory. Not safe
// for concurrent use; engines call it from one goroutine (the parallel
// crawler under its checkpoint barrier).
type Checkpointer struct {
	dir  string
	fsys FS
	st   *telemetry.CheckpointStats
	seq  uint64
}

// New opens (creating if needed) the checkpoint directory. If a
// manifest already exists, numbering continues after it — the usual
// resume flow is Load (or RecoverCrawl) first, then New with the same
// dir. A nil fsys means the real filesystem; a nil st disables
// telemetry.
func New(dir string, fsys FS, st *telemetry.CheckpointStats) (*Checkpointer, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	if st == nil {
		st = &telemetry.CheckpointStats{}
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("checkpoint: mkdir %s: %w", dir, err)
	}
	c := &Checkpointer{dir: dir, fsys: fsys, st: st}
	man, err := ReadManifest(fsys, dir)
	if err != nil {
		return nil, err
	}
	if man != nil {
		c.seq = man.Seq
	}
	return c, nil
}

// Dir returns the checkpoint directory.
func (c *Checkpointer) Dir() string { return c.dir }

// Seq returns the sequence number of the last written (or inherited)
// checkpoint.
func (c *Checkpointer) Seq() uint64 { return c.seq }

// Write commits one checkpoint: the encoded state goes down atomically
// under a fresh sequence-numbered name, then the manifest is atomically
// replaced to point at it, then superseded state files are removed.
// A crash before the manifest rename leaves the previous checkpoint
// authoritative; a crash after it leaves the new one. The caller must
// have made the log/DB bytes up to st.LogPos/st.DBPos durable first —
// the manifest's positions are a durability promise, not a hope.
func (c *Checkpointer) Write(st *State) error {
	var t0 time.Time
	if telemetry.Timed(c.st.Duration) {
		t0 = time.Now()
	}
	data := st.Encode()
	seq := c.seq + 1
	name := fmt.Sprintf("state-%08d.ckpt", seq)
	if err := WriteFileAtomic(c.fsys, filepath.Join(c.dir, name), data); err != nil {
		return err
	}
	man := Manifest{
		Version:   1,
		Seq:       seq,
		StateFile: name,
		StateCRC:  CRC(data),
		StateSize: int64(len(data)),
		LogPos:    st.LogPos,
		DBPos:     st.DBPos,
		Crawled:   st.Crawled,
	}
	mb, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: encoding manifest: %w", err)
	}
	if err := WriteFileAtomic(c.fsys, filepath.Join(c.dir, ManifestName), mb); err != nil {
		return err
	}
	c.seq = seq
	c.st.Writes.Inc()
	c.st.Bytes.Add(int64(len(data)) + int64(len(mb)))
	if !t0.IsZero() {
		c.st.Duration.ObserveSince(t0)
	}
	// Best-effort cleanup of superseded state files. The new manifest is
	// already durable, so losing this race to a crash just leaks a file
	// the next Write removes.
	c.removeStale(name)
	return nil
}

// removeStale deletes every state-*.ckpt except keep (including .tmp
// leftovers of interrupted writes).
func (c *Checkpointer) removeStale(keep string) {
	names, err := c.fsys.ReadDir(c.dir)
	if err != nil {
		return
	}
	removed := false
	for _, n := range names {
		if n == keep || !strings.HasPrefix(n, "state-") {
			continue
		}
		if strings.HasSuffix(n, ".ckpt") || strings.HasSuffix(n, ".tmp") {
			if c.fsys.Remove(filepath.Join(c.dir, n)) == nil {
				removed = true
			}
		}
	}
	if removed {
		_ = c.fsys.SyncDir(c.dir)
	}
}

// Load reads the newest complete checkpoint in dir. A missing directory
// or manifest means "no checkpoint": both returns are nil and the crawl
// starts fresh. A manifest that names a missing or corrupt state file
// is a hard error — the commit protocol never produces that, so seeing
// it means real damage the operator should know about.
func Load(dir string, fsys FS) (*State, *Manifest, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	man, err := ReadManifest(fsys, dir)
	if err != nil || man == nil {
		return nil, nil, err
	}
	data, err := fsys.ReadFile(filepath.Join(dir, man.StateFile))
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: manifest names %s but it cannot be read: %w", man.StateFile, err)
	}
	if int64(len(data)) != man.StateSize || CRC(data) != man.StateCRC {
		return nil, nil, fmt.Errorf("checkpoint: %s does not match its manifest: %w", man.StateFile, ErrCorruptState)
	}
	st, err := Decode(data)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %s: %w", man.StateFile, err)
	}
	return st, man, nil
}

// ReadManifest reads dir's manifest alone, leaving the state file it
// names unread: enough to learn the sink positions a checkpoint vouches
// for. It returns nil (no error) when dir or the manifest does not
// exist.
func ReadManifest(fsys FS, dir string) (*Manifest, error) {
	data, err := fsys.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, nil // no checkpoint yet
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("checkpoint: corrupt manifest in %s: %w", dir, err)
	}
	if man.StateFile == "" || strings.Contains(man.StateFile, "/") || strings.Contains(man.StateFile, "\\") {
		return nil, fmt.Errorf("checkpoint: corrupt manifest in %s: bad state file name", dir)
	}
	return &man, nil
}
