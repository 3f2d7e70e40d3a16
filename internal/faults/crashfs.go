package faults

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"langcrawl/internal/checkpoint"
)

// ErrInjected is the failure CrashFS returns when an op or write budget
// runs out — the moment the simulated process "dies" mid-I/O.
var ErrInjected = errors.New("faults: injected filesystem failure")

// CrashFS is an in-memory checkpoint.FS that models what a real
// filesystem guarantees across power loss — and nothing more. File
// contents are durable only up to the last Sync; directory operations
// (creates, renames, removes) are durable only after a SyncDir on the
// parent. Crash() discards everything beyond those guarantees: unsynced
// directory ops are rolled back in reverse order and every file is cut
// to its synced prefix, exactly the state a machine reboots into.
//
// Three injection knobs kill I/O mid-flight: SetOpBudget fails every
// operation after the budget is spent (crash-at-every-step sweeps),
// SetWriteBudget cuts a write short at byte N (torn state files), and
// SetDropSyncs makes Sync/SyncDir lie — report success without making
// anything durable (the misbehaving-disk case fsync-then-rename must
// survive).
//
// All methods are safe for concurrent use.
type CrashFS struct {
	mu    sync.Mutex
	files map[string]*memFile
	dirs  map[string]bool
	// journal holds directory operations not yet made durable by a
	// SyncDir on their parent, in execution order.
	journal []dirOp

	opBudget    int // ops remaining; -1 = unlimited
	writeBudget int // write bytes remaining; -1 = unlimited
	dropSyncs   bool
}

type memFile struct {
	data   []byte
	synced int // durable prefix length
}

func (f *memFile) clone() *memFile {
	if f == nil {
		return nil
	}
	return &memFile{data: append([]byte(nil), f.data...), synced: f.synced}
}

// dirOp is one not-yet-durable namespace change: enough to undo it.
type dirOp struct {
	dir  string   // parent whose SyncDir makes this durable
	path string   // the name this op changed
	prev *memFile // what path held before (nil: nothing)
	// renames change two names; from is the source path and fromPrev
	// what it held (always non-nil for a rename).
	from     string
	fromPrev *memFile
}

// NewCrashFS returns an empty filesystem with unlimited budgets.
func NewCrashFS() *CrashFS {
	return &CrashFS{
		files:       map[string]*memFile{},
		dirs:        map[string]bool{".": true, "/": true},
		opBudget:    -1,
		writeBudget: -1,
	}
}

// SetOpBudget allows n more filesystem operations (Create, Write, Sync,
// Rename, Remove, SyncDir, Truncate, MkdirAll); the n+1-th and all
// later ops fail with ErrInjected. Negative n removes the limit.
func (c *CrashFS) SetOpBudget(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.opBudget = n
}

// SetWriteBudget allows n more bytes of file writes; the write that
// would exceed it is applied partially and fails with ErrInjected.
// Negative n removes the limit.
func (c *CrashFS) SetWriteBudget(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writeBudget = n
}

// SetDropSyncs makes Sync and SyncDir succeed without conferring
// durability — writes and namespace ops stay vulnerable to Crash.
func (c *CrashFS) SetDropSyncs(v bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropSyncs = v
}

// Crash simulates power loss: every file reverts to its synced prefix
// and every directory op not covered by a SyncDir is undone, newest
// first. Budgets are reset to unlimited so the "rebooted" process can
// run recovery against the surviving state.
func (c *CrashFS) Crash() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.journal) - 1; i >= 0; i-- {
		op := c.journal[i]
		if op.prev == nil {
			delete(c.files, op.path)
		} else {
			c.files[op.path] = op.prev
		}
		if op.from != "" {
			c.files[op.from] = op.fromPrev
		}
	}
	c.journal = nil
	for _, f := range c.files {
		if f.synced < len(f.data) {
			f.data = f.data[:f.synced]
		}
	}
	c.opBudget = -1
	c.writeBudget = -1
}

// charge spends one op from the budget; at zero everything fails.
func (c *CrashFS) charge() error {
	if c.opBudget < 0 {
		return nil
	}
	if c.opBudget == 0 {
		return ErrInjected
	}
	c.opBudget--
	return nil
}

func clean(p string) string { return filepath.Clean(p) }

// MkdirAll implements checkpoint.FS. Directory creation is treated as
// immediately durable — the protocols under test create their directory
// once at startup, long before any interesting crash point.
func (c *CrashFS) MkdirAll(dir string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.charge(); err != nil {
		return err
	}
	d := clean(dir)
	for d != "." && d != "/" && d != "" {
		c.dirs[d] = true
		d = filepath.Dir(d)
	}
	return nil
}

// Create implements checkpoint.FS: an empty file whose *name* is
// durable only after SyncDir on the parent.
func (c *CrashFS) Create(name string) (checkpoint.File, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.charge(); err != nil {
		return nil, err
	}
	p := clean(name)
	if !c.dirExists(filepath.Dir(p)) {
		return nil, fmt.Errorf("crashfs: create %s: no such directory", name)
	}
	c.journal = append(c.journal, dirOp{dir: filepath.Dir(p), path: p, prev: c.files[p].clone()})
	f := &memFile{}
	c.files[p] = f
	return &crashFile{fs: c, f: f}, nil
}

func (c *CrashFS) dirExists(dir string) bool {
	return c.dirs[clean(dir)]
}

// Rename implements checkpoint.FS. Like POSIX rename, the swap is
// atomic but reaches the disk only with the parent directory's SyncDir;
// file contents keep their synced prefixes across the move.
func (c *CrashFS) Rename(oldpath, newpath string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.charge(); err != nil {
		return err
	}
	op, np := clean(oldpath), clean(newpath)
	f, ok := c.files[op]
	if !ok {
		return fmt.Errorf("crashfs: rename %s: no such file", oldpath)
	}
	c.journal = append(c.journal, dirOp{
		dir: filepath.Dir(np), path: np, prev: c.files[np].clone(),
		from: op, fromPrev: f,
	})
	c.files[np] = f
	delete(c.files, op)
	return nil
}

// Remove implements checkpoint.FS.
func (c *CrashFS) Remove(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.charge(); err != nil {
		return err
	}
	p := clean(name)
	f, ok := c.files[p]
	if !ok {
		return fmt.Errorf("crashfs: remove %s: no such file", name)
	}
	c.journal = append(c.journal, dirOp{dir: filepath.Dir(p), path: p, prev: f})
	delete(c.files, p)
	return nil
}

// SyncDir implements checkpoint.FS: namespace ops under dir become
// durable (unless syncs are being dropped).
func (c *CrashFS) SyncDir(dir string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.charge(); err != nil {
		return err
	}
	if c.dropSyncs {
		return nil
	}
	d := clean(dir)
	kept := c.journal[:0]
	for _, op := range c.journal {
		if op.dir != d {
			kept = append(kept, op)
		}
	}
	c.journal = kept
	return nil
}

// ReadFile implements checkpoint.FS.
func (c *CrashFS) ReadFile(name string) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[clean(name)]
	if !ok {
		return nil, fmt.Errorf("crashfs: read %s: no such file", name)
	}
	return append([]byte(nil), f.data...), nil
}

// ReadFileAt implements checkpoint.FS.
func (c *CrashFS) ReadFileAt(name string, off int64) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[clean(name)]
	if !ok {
		return nil, fmt.Errorf("crashfs: read %s: no such file", name)
	}
	if off > int64(len(f.data)) {
		return nil, fmt.Errorf("crashfs: read %s at %d: beyond end (%d)", name, off, len(f.data))
	}
	return append([]byte(nil), f.data[off:]...), nil
}

// Stat implements checkpoint.FS.
func (c *CrashFS) Stat(name string) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[clean(name)]
	if !ok {
		return 0, fmt.Errorf("crashfs: stat %s: no such file", name)
	}
	return int64(len(f.data)), nil
}

// Truncate implements checkpoint.FS. Per the interface contract the cut
// is synced — unless syncs are being dropped, in which case only the
// already-durable prefix shrinks.
func (c *CrashFS) Truncate(name string, size int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.charge(); err != nil {
		return err
	}
	f, ok := c.files[clean(name)]
	if !ok {
		return fmt.Errorf("crashfs: truncate %s: no such file", name)
	}
	if size > int64(len(f.data)) {
		return fmt.Errorf("crashfs: truncate %s to %d: beyond end (%d)", name, size, len(f.data))
	}
	f.data = f.data[:size]
	if f.synced > int(size) {
		f.synced = int(size)
	}
	if !c.dropSyncs {
		f.synced = int(size)
	}
	return nil
}

// ReadDir implements checkpoint.FS.
func (c *CrashFS) ReadDir(dir string) ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := clean(dir)
	if !c.dirExists(d) {
		return nil, fmt.Errorf("crashfs: readdir %s: no such directory", dir)
	}
	var names []string
	for p := range c.files {
		if filepath.Dir(p) == d {
			names = append(names, filepath.Base(p))
		}
	}
	prefix := d + string(filepath.Separator)
	for sub := range c.dirs {
		if filepath.Dir(sub) == d && strings.HasPrefix(sub, prefix) {
			names = append(names, filepath.Base(sub))
		}
	}
	sort.Strings(names)
	return names, nil
}

// Exists reports whether name currently exists (synced or not) — a test
// convenience.
func (c *CrashFS) Exists(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.files[clean(name)]
	return ok
}

// crashFile is the write handle; contents become durable on Sync.
type crashFile struct {
	fs     *CrashFS
	f      *memFile
	closed bool
}

// Write appends p, cut short if the write budget runs out.
func (w *crashFile) Write(p []byte) (int, error) {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if w.closed {
		return 0, errors.New("crashfs: write on closed file")
	}
	if err := w.fs.charge(); err != nil {
		return 0, err
	}
	n := len(p)
	short := false
	if w.fs.writeBudget >= 0 {
		if w.fs.writeBudget < n {
			n = w.fs.writeBudget
			short = true
		}
		w.fs.writeBudget -= n
	}
	w.f.data = append(w.f.data, p[:n]...)
	if short {
		return n, ErrInjected
	}
	return n, nil
}

// Sync makes the current contents durable (unless syncs are dropped).
func (w *crashFile) Sync() error {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if w.closed {
		return errors.New("crashfs: sync on closed file")
	}
	if err := w.fs.charge(); err != nil {
		return err
	}
	if !w.fs.dropSyncs {
		w.f.synced = len(w.f.data)
	}
	return nil
}

// Close implements checkpoint.File; closing is free and never fails.
func (w *crashFile) Close() error {
	w.closed = true
	return nil
}
