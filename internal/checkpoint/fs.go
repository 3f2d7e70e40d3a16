// Package checkpoint gives a crawl one durable, atomic unit of state:
// the frontier contents, the visited/seen set, the page
// budget already spent, the per-host circuit-breaker states, and the
// committed crawl-log / link-DB byte positions. A checkpoint is written
// fsync-then-rename — state file first, then a manifest naming the
// consistent file set — so a crash at any instant leaves either the
// previous checkpoint or the new one, never a torn mixture. RecoverCrawl
// reverses the process: it loads the newest manifest, truncates the
// crawl log and link database back to the positions that manifest
// vouches for, and hands the engine a State to re-seed itself from.
//
// Every filesystem touch goes through the FS interface so the crash
// harness in internal/faults can substitute an in-memory filesystem
// that kills writes at byte N, drops fsyncs, and reverts un-synced
// renames — the conformance suite's kill-resume proofs run on it.
package checkpoint

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// File is the writable handle FS.Create returns: ordinary writes plus
// the explicit durability point.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS is the filesystem slice the checkpoint protocol needs. OSFS is the
// real thing; faults.CrashFS is the adversarial in-memory double. All
// paths are plain strings interpreted by the implementation (OSFS maps
// them to the host filesystem; memory implementations may treat them as
// opaque keys with "/" separators).
type FS interface {
	// MkdirAll ensures dir (and parents) exist.
	MkdirAll(dir string) error
	// Create opens name for writing, truncating any previous content.
	Create(name string) (File, error)
	// Rename atomically replaces newpath with oldpath. The rename is
	// durable only after SyncDir on the parent directory.
	Rename(oldpath, newpath string) error
	// Remove deletes name (the removal is durable after SyncDir).
	Remove(name string) error
	// SyncDir makes prior creates/renames/removes in dir durable.
	SyncDir(dir string) error
	// ReadFile returns name's full contents.
	ReadFile(name string) ([]byte, error)
	// ReadFileAt returns name's contents from byte offset off to EOF.
	ReadFileAt(name string, off int64) ([]byte, error)
	// Stat returns name's size in bytes.
	Stat(name string) (int64, error)
	// Truncate cuts name to size bytes and syncs the file.
	Truncate(name string, size int64) error
	// ReadDir lists the names (not paths) of dir's entries.
	ReadDir(dir string) ([]string, error)
}

// OSFS is the production FS: the host filesystem with real fsyncs.
type OSFS struct{}

// MkdirAll implements FS.
func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// Create implements FS.
func (OSFS) Create(name string) (File, error) { return os.Create(name) }

// Rename implements FS.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// SyncDir implements FS: fsync on the directory makes the entries
// themselves (creates, renames, removals) durable — syncing only the
// file leaves the *name* at the mercy of the next crash.
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadFile implements FS.
func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// ReadFileAt implements FS.
func (OSFS) ReadFileAt(name string, off int64) ([]byte, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return nil, err
	}
	return io.ReadAll(f)
}

// Stat implements FS.
func (OSFS) Stat(name string) (int64, error) {
	info, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// Truncate implements FS.
func (OSFS) Truncate(name string, size int64) error {
	if err := os.Truncate(name, size); err != nil {
		return err
	}
	f, err := os.OpenFile(name, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadDir implements FS.
func (OSFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// AppendOpener is the optional FS extension for reopening an existing
// file positioned at its end without truncating it — the resume path
// for append-only logs. OSFS implements it; in-memory test filesystems
// need not (OpenAppend emulates it for them).
type AppendOpener interface {
	OpenAppend(name string) (File, error)
}

// OpenAppend implements AppendOpener with a real O_APPEND open.
func (OSFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0o644)
}

// OpenAppend reopens name for appending through fsys. Filesystems that
// implement AppendOpener get a true append open; for the rest the file
// is read back and rewritten through Create, which is equivalent for
// the in-memory doubles the tests inject (a crash window between the
// read and the rewrite only exists on a real filesystem, and the real
// filesystem takes the O_APPEND path).
func OpenAppend(fsys FS, name string) (File, error) {
	if ao, ok := fsys.(AppendOpener); ok {
		return ao.OpenAppend(name)
	}
	data, err := fsys.ReadFile(name)
	if err != nil {
		return nil, err
	}
	f, err := fsys.Create(name)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// WriteFileAtomic writes data to path with full crash atomicity: the
// bytes go to path+".tmp", the tmp file is fsynced and closed, renamed
// over path, and the parent directory is fsynced so the rename itself
// survives power loss. A crash at any step leaves either the old file
// or the new one intact — the fix for the bare create-write-rename
// dance, whose rename can evaporate with the directory's dirty block.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("checkpoint: create %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("checkpoint: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("checkpoint: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("checkpoint: close %s: %w", tmp, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return fmt.Errorf("checkpoint: rename %s: %w", path, err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("checkpoint: sync dir of %s: %w", path, err)
	}
	return nil
}
