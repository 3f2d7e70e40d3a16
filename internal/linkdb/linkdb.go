// Package linkdb is the simulator's link database (the "LinkDB" box in
// the paper's Fig 2 architecture): a persistent URL → page-record map.
// The live crawler writes one record per fetched page as it goes; a
// crashed crawl reopens the database and resumes with everything it had
// already learned about the graph.
//
// The file is a crawl log (package crawlog): its magic and header, then
// one record frame per Put. A URL put more than once has several
// frames, and the last one wins. Open indexes the file into memory, URL
// → newest frame, and cuts a torn or corrupt tail off; Get reads one
// frame back.
package linkdb

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"

	"langcrawl/internal/crawlog"
)

// ErrNotFound is returned by Get for URLs never recorded.
var ErrNotFound = errors.New("linkdb: URL not found")

// ErrClosed is returned by calls on a closed database.
var ErrClosed = errors.New("linkdb: database is closed")

// frame locates one record frame in the file.
type frame struct {
	off  int64
	size int
}

// DB is a persistent link database. All methods are safe for concurrent
// use.
type DB struct {
	mu     sync.Mutex
	f      *os.File
	w      *crawlog.Writer
	index  map[string]frame // URL → its newest frame
	closed bool
}

// Open opens (creating if needed) the link database at path. A file
// that is not a crawl log is refused and left as it is.
func Open(path string) (*DB, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("linkdb: %w", err)
	}
	db := &DB{f: f, index: make(map[string]frame)}
	if err := db.load(); err != nil {
		f.Close()
		return nil, fmt.Errorf("linkdb: %s: %w", path, err)
	}
	return db, nil
}

// load indexes the file and readies the writer: an empty file gets a
// header, and a torn or corrupt tail is truncated away.
func (db *DB) load() error {
	info, err := db.f.Stat()
	if err != nil {
		return err
	}
	if info.Size() == 0 {
		if db.w, err = crawlog.NewWriter(db.f, crawlog.Header{Comment: "link database"}); err != nil {
			return err
		}
		return db.w.Flush()
	}
	r, err := crawlog.NewReader(io.NewSectionReader(db.f, 0, info.Size()))
	if err != nil {
		return fmt.Errorf("not a link database: %w", err)
	}
	for {
		off := r.Offset()
		rec, err := r.Next()
		if err != nil { // the end, or the torn tail cut below
			break
		}
		db.index[rec.URL] = frame{off: off, size: int(r.Offset() - off)}
	}
	end := r.Offset()
	if end < info.Size() {
		if err := db.f.Truncate(end); err != nil {
			return fmt.Errorf("truncating torn tail: %w", err)
		}
	}
	if _, err := db.f.Seek(end, io.SeekStart); err != nil {
		return err
	}
	db.w = crawlog.NewWriterAt(db.f, end)
	return nil
}

// Put records (or replaces) the page observation for rec.URL.
func (db *DB) Put(rec *crawlog.Record) error {
	if rec.URL == "" {
		return errors.New("linkdb: record has empty URL")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	off := db.w.Offset()
	if err := db.w.Write(rec); err != nil {
		return fmt.Errorf("linkdb: %w", err)
	}
	db.index[rec.URL] = frame{off: off, size: int(db.w.Offset() - off)}
	return nil
}

// Get returns the recorded observation for url, or ErrNotFound.
func (db *DB) Get(url string) (*crawlog.Record, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	fr, ok := db.index[url]
	if !ok {
		return nil, ErrNotFound
	}
	// The frame may still sit in the writer's buffer.
	if err := db.w.Flush(); err != nil {
		return nil, err
	}
	buf := make([]byte, fr.size)
	if _, err := db.f.ReadAt(buf, fr.off); err != nil {
		return nil, err
	}
	rec, _, err := crawlog.DecodeFrame(buf)
	if err != nil {
		return nil, fmt.Errorf("linkdb: %s: %w", url, err)
	}
	return rec, nil
}

// Len returns the number of recorded URLs.
func (db *DB) Len() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.index)
}

// URLs returns all recorded URLs in sorted order (tests and small
// crawls; it materializes the key set).
func (db *DB) URLs() []string {
	db.mu.Lock()
	urls := make([]string, 0, len(db.index))
	for u := range db.index {
		urls = append(urls, u)
	}
	db.mu.Unlock()
	slices.Sort(urls)
	return urls
}

// ForEach calls fn for every record in sorted URL order, stopping at the
// first error.
func (db *DB) ForEach(fn func(*crawlog.Record) error) error {
	for _, url := range db.URLs() {
		rec, err := db.Get(url)
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// Sync flushes and fsyncs pending writes.
func (db *DB) Sync() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.w.Sync()
}

// Offset returns the file's end-of-log byte offset (durable only after
// Sync); checkpoints record it as the database's committed length.
func (db *DB) Offset() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.w.Offset()
}

// Close syncs and closes the database. Later calls fail with ErrClosed;
// a second Close returns nil.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	return errors.Join(db.w.Sync(), db.f.Close())
}
