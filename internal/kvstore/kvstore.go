// Package kvstore is a small embedded key-value store in the log-
// structured (bitcask) style: an append-only data file on disk plus an
// in-memory hash index from key to file offset. It backs the crawl
// simulator's link database — write-heavy, point-lookup-only, and
// required to survive a crash mid-write, which is exactly the workload
// this design is built for.
//
// On-disk format: a magic header, then a sequence of records
//
//	crc32(IEEE, rest of record) | uvarint(len(key)) | uvarint(len(val)+1) | key | val
//
// A value-length field of zero marks a tombstone (deletion). Recovery is
// a forward scan: the first record that fails its CRC or is truncated
// ends the valid prefix, and the file is truncated there — torn tail
// writes lose at most the records that were never acknowledged.
package kvstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"langcrawl/internal/binfmt"
)

const header = "LCKV1\n"

var magic = []byte(header)

// HeaderSize is the length of the magic every store file starts with: a
// file no longer than that holds no record.
const HeaderSize = len(header)

// ErrNotFound is returned by Get for absent (or deleted) keys.
var ErrNotFound = errors.New("kvstore: key not found")

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("kvstore: store is closed")

type indexEntry struct {
	off  int64 // offset of the record start
	size int64 // total record size on disk
	vlen int   // value length
}

// Store is a single-file key-value store. All methods are safe for
// concurrent use.
type Store struct {
	mu     sync.RWMutex
	path   string
	f      *os.File
	w      *bufio.Writer
	off    int64 // current end-of-log offset
	index  map[string]indexEntry
	dead   int64 // bytes occupied by superseded or deleted records
	closed bool
	sync   bool
	frame  []byte // appendRecord's record scratch, reused under mu
}

// Options configure Open.
type Options struct {
	// SyncEveryPut fsyncs after each Put/Delete. Durable but slow; off by
	// default because the simulator treats the store as a rebuildable
	// cache.
	SyncEveryPut bool
}

// Open opens (creating if needed) the store at path and rebuilds the
// index by scanning the log. A corrupt or torn tail is truncated away.
func Open(path string, opts Options) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: open %s: %w", path, err)
	}
	s := &Store{
		path:  path,
		f:     f,
		index: make(map[string]indexEntry),
		sync:  opts.SyncEveryPut,
	}
	if err := s.recover(); err != nil {
		f.Close()
		return nil, err
	}
	s.w = bufio.NewWriterSize(f, 1<<16)
	return s, nil
}

// recover scans the log, rebuilding the index and truncating any invalid
// suffix.
func (s *Store) recover() error {
	info, err := s.f.Stat()
	if err != nil {
		return err
	}
	if info.Size() == 0 {
		if _, err := s.f.Write(magic); err != nil {
			return err
		}
		s.off = int64(len(magic))
		return nil
	}
	r := bufio.NewReaderSize(io.NewSectionReader(s.f, 0, info.Size()), 1<<16)
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(r, hdr); err != nil || string(hdr) != string(magic) {
		return fmt.Errorf("kvstore: %s is not a kvstore file", s.path)
	}
	off := int64(len(magic))
	for {
		key, vlen, n, err := readRecord(r, info.Size()-off)
		if err != nil {
			// Any read error — EOF, short record, CRC mismatch — ends the
			// valid prefix.
			break
		}
		if prev, ok := s.index[key]; ok {
			s.dead += prev.size
		}
		if vlen < 0 { // tombstone
			delete(s.index, key)
			s.dead += int64(n)
		} else {
			s.index[key] = indexEntry{off: off, size: int64(n), vlen: vlen}
		}
		off += int64(n)
	}
	s.off = off
	if off < info.Size() {
		if err := s.f.Truncate(off); err != nil {
			return fmt.Errorf("kvstore: truncating torn tail: %w", err)
		}
	}
	if _, err := s.f.Seek(off, io.SeekStart); err != nil {
		return err
	}
	return nil
}

// readRecord reads one record from r, which holds left more bytes,
// returning the key, the value length (-1 for tombstones) and the
// record's on-disk size. Any malformation is an error, and a header
// whose lengths run past the bytes left is one before anything is
// allocated for them.
func readRecord(r *bufio.Reader, left int64) (key string, vlen, size int, err error) {
	head, _ := r.Peek(4 + 2*binary.MaxVarintLen64)
	if len(head) == 0 {
		return "", 0, 0, io.EOF
	}
	if len(head) < 4 {
		return "", 0, 0, io.ErrUnexpectedEOF
	}
	h := binfmt.NewReader(head[4:])
	klen, vfield := h.Uvarint(), h.Uvarint()
	if h.Err() != nil {
		return "", 0, 0, fmt.Errorf("kvstore: record header: %w", h.Err())
	}
	hn := h.Offset()
	// The peeked header lies within the left bytes, so rest cannot wrap.
	rest := uint64(left) - uint64(4+hn)
	if klen > 1<<20 || vfield > 1<<28 || klen+max(vfield, 1)-1 > rest {
		return "", 0, 0, errors.New("kvstore: implausible record header")
	}
	vlen = int(vfield) - 1 // 0 means tombstone
	wantCRC := binary.LittleEndian.Uint32(head)
	crc := crc32.ChecksumIEEE(head[4 : 4+hn])
	if _, err = r.Discard(4 + hn); err != nil {
		return "", 0, 0, err
	}
	body := make([]byte, int(klen)+max(vlen, 0))
	if _, err = io.ReadFull(r, body); err != nil {
		return "", 0, 0, err
	}
	if crc32.Update(crc, crc32.IEEETable, body) != wantCRC {
		return "", 0, 0, errors.New("kvstore: crc mismatch")
	}
	return string(body[:klen]), vlen, 4 + hn + len(body), nil
}

// appendRecord writes one record through the buffered writer and returns
// its on-disk size. The record is framed in reused scratch and handed to
// the writer in one call, so a Put allocates nothing of its own.
func (s *Store) appendRecord(key string, val []byte, tombstone bool) (int, error) {
	vfield := uint64(0)
	if !tombstone {
		vfield = uint64(len(val)) + 1
	}
	rec := append(s.frame[:0], 0, 0, 0, 0) // crc, filled in below
	rec = binary.AppendUvarint(rec, uint64(len(key)))
	rec = binary.AppendUvarint(rec, vfield)
	rec = append(rec, key...)
	if !tombstone {
		rec = append(rec, val...)
	}
	binary.LittleEndian.PutUint32(rec, crc32.ChecksumIEEE(rec[4:]))
	s.frame = rec
	if _, err := s.w.Write(rec); err != nil {
		return 0, err
	}
	if s.sync {
		if err := s.w.Flush(); err != nil {
			return 0, err
		}
		if err := s.f.Sync(); err != nil {
			return 0, err
		}
	}
	return len(rec), nil
}

// Put stores val under key, replacing any previous value.
func (s *Store) Put(key string, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	n, err := s.appendRecord(key, val, false)
	if err != nil {
		return err
	}
	if prev, ok := s.index[key]; ok {
		s.dead += prev.size
	}
	s.index[key] = indexEntry{off: s.off, size: int64(n), vlen: len(val)}
	s.off += int64(n)
	return nil
}

// Get returns the value stored under key, or ErrNotFound. It takes the
// write lock because the record may still sit in the write buffer and
// must be flushed before the file read; point reads are cheap enough
// that the simpler locking wins over a buffered-read fast path.
func (s *Store) Get(key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	e, ok := s.index[key]
	if !ok {
		return nil, ErrNotFound
	}
	if err := s.w.Flush(); err != nil {
		return nil, err
	}
	buf := make([]byte, e.size)
	if _, err := s.f.ReadAt(buf, e.off); err != nil {
		return nil, err
	}
	// The value is the record suffix of length vlen.
	val := buf[int(e.size)-e.vlen:]
	return append([]byte(nil), val...), nil
}

// Has reports whether key is present without reading its value.
func (s *Store) Has(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return false
	}
	_, ok := s.index[key]
	return ok
}

// Delete removes key. Deleting an absent key is a no-op.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	prev, ok := s.index[key]
	if !ok {
		return nil
	}
	n, err := s.appendRecord(key, nil, true)
	if err != nil {
		return err
	}
	delete(s.index, key)
	s.dead += prev.size + int64(n)
	s.off += int64(n)
	return nil
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Keys returns all live keys in sorted order. Intended for tests and
// small stores; it materializes the whole key set.
func (s *Store) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.index))
	for k := range s.index {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// DeadBytes reports the bytes occupied by superseded records — the
// payoff available to Compact.
func (s *Store) DeadBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dead
}

// Flush pushes buffered writes to the OS.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.w.Flush()
}

// Sync flushes and fsyncs the log.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.w.Flush(); err != nil {
		return err
	}
	return s.f.Sync()
}

// Compact rewrites the store, dropping superseded and deleted records,
// and atomically replaces the log file. The store remains usable
// throughout; concurrent readers and writers are blocked only for the
// final swap (this implementation holds the lock for the whole rewrite,
// which is acceptable for the simulator's offline compactions).
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.w.Flush(); err != nil {
		return err
	}

	tmpPath := s.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer os.Remove(tmpPath) // no-op after successful rename

	next := &Store{path: tmpPath, f: tmp, index: make(map[string]indexEntry, len(s.index)), w: bufio.NewWriterSize(tmp, 1<<16)}
	if _, err := tmp.Write(magic); err != nil {
		tmp.Close()
		return err
	}
	next.off = int64(len(magic))

	// Copy live records in sorted key order for deterministic output.
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := s.index[k]
		buf := make([]byte, e.size)
		if _, err := s.f.ReadAt(buf, e.off); err != nil {
			tmp.Close()
			return err
		}
		val := buf[int(e.size)-e.vlen:]
		n, err := next.appendRecord(k, val, false)
		if err != nil {
			tmp.Close()
			return err
		}
		next.index[k] = indexEntry{off: next.off, size: int64(n), vlen: e.vlen}
		next.off += int64(n)
	}
	if err := next.w.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		tmp.Close()
		return err
	}
	old := s.f
	s.f = tmp
	s.w = next.w
	s.off = next.off
	s.index = next.index
	s.dead = 0
	old.Close()
	return nil
}

// Close flushes and closes the store. Further operations fail with
// ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return err
	}
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// Path returns the store's file path.
func (s *Store) Path() string { return s.path }

// Offset returns the end-of-log byte offset including records still in
// the write buffer; it is a durable position only after Sync.
// Checkpoints record it as the store's committed length.
func (s *Store) Offset() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.off
}

// ScanTail scans raw post-checkpoint store bytes (record stream only,
// no magic — a mid-file tail) and returns how many complete, CRC-valid
// records they hold and how many bytes those records span. Recovery
// uses it to report what a truncation discards.
func ScanTail(data []byte) (records, validBytes int) {
	r := bufio.NewReader(bytes.NewReader(data))
	for {
		_, _, n, err := readRecord(r, int64(len(data)-validBytes))
		if err != nil {
			return records, validBytes
		}
		records++
		validBytes += n
	}
}

// Dir is a convenience for tests: it opens a store in dir with the
// default file name.
func Dir(dir string, opts Options) (*Store, error) {
	return Open(filepath.Join(dir, "store.kv"), opts)
}
