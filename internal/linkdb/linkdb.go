// Package linkdb is the simulator's link database (the "LinkDB" box in
// the paper's Fig 2 architecture): a persistent URL → page-record map
// layered on the embedded kvstore. The live crawler writes one record
// per fetched page as it goes; a crashed crawl reopens the database and
// resumes with everything it had already learned about the graph.
package linkdb

import (
	"errors"
	"fmt"
	"sync"

	"langcrawl/internal/crawlog"
	"langcrawl/internal/kvstore"
)

// ErrNotFound is returned by Get for URLs never recorded.
var ErrNotFound = errors.New("linkdb: URL not found")

// DB is a persistent link database. All methods are safe for concurrent
// use (the underlying store serializes access).
type DB struct {
	store *kvstore.Store

	mu  sync.Mutex // guards enc
	enc []byte     // Put's encode scratch, reused across records
}

// Open opens (creating if needed) the link database at path.
func Open(path string) (*DB, error) {
	st, err := kvstore.Open(path, kvstore.Options{})
	if err != nil {
		return nil, fmt.Errorf("linkdb: %w", err)
	}
	return &DB{store: st}, nil
}

// Put records (or replaces) the page observation for rec.URL.
func (db *DB) Put(rec *crawlog.Record) error {
	if rec.URL == "" {
		return errors.New("linkdb: record has empty URL")
	}
	// The store has buffered or written the value by the time its Put
	// returns, so the scratch is free again for the next record.
	db.mu.Lock()
	defer db.mu.Unlock()
	db.enc = crawlog.AppendRecord(db.enc[:0], rec)
	return db.store.Put(rec.URL, db.enc)
}

// Get returns the recorded observation for url, or ErrNotFound.
func (db *DB) Get(url string) (*crawlog.Record, error) {
	b, err := db.store.Get(url)
	if err == kvstore.ErrNotFound {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, err
	}
	rec, err := crawlog.DecodeRecord(b)
	if err != nil {
		return nil, fmt.Errorf("linkdb: %s: %w", url, err)
	}
	return rec, nil
}

// Delete removes url's record.
func (db *DB) Delete(url string) error { return db.store.Delete(url) }

// Len returns the number of recorded URLs.
func (db *DB) Len() int { return db.store.Len() }

// URLs returns all recorded URLs in sorted order (tests and small
// crawls; it materializes the key set).
func (db *DB) URLs() []string { return db.store.Keys() }

// ForEach calls fn for every record in sorted URL order, stopping at the
// first error.
func (db *DB) ForEach(fn func(*crawlog.Record) error) error {
	for _, url := range db.store.Keys() {
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

// Compact reclaims space from overwritten records.
func (db *DB) Compact() error { return db.store.Compact() }

// Sync flushes and fsyncs pending writes.
func (db *DB) Sync() error { return db.store.Sync() }

// Offset returns the store's end-of-log byte offset (durable only after
// Sync); checkpoints record it as the database's committed length.
func (db *DB) Offset() int64 { return db.store.Offset() }

// Path returns the database's file path.
func (db *DB) Path() string { return db.store.Path() }

// Close flushes and closes the database.
func (db *DB) Close() error { return db.store.Close() }
