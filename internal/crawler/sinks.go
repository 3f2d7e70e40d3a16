package crawler

import (
	"langcrawl/internal/crawlog"
	"langcrawl/internal/linkdb"
)

// sinks bundles the crawl-log and link-DB append paths behind their
// group-commit writers. With Config.AppendBatch at its default of 1 both
// wrappers degrade to the synchronous write-through path, so a
// one-worker crawl's output stays byte-identical to the pre-batching
// crawler; larger batches amortize encoding locks and (for the DB) the
// per-commit fsync.
type sinks struct {
	log *crawlog.BatchWriter
	db  *linkdb.Batcher
}

func (c *Crawler) newSinks() sinks {
	var s sinks
	if c.cfg.Log != nil {
		s.log = crawlog.NewBatchWriter(c.cfg.Log, c.cfg.AppendBatch, c.cfg.AppendInterval)
		s.log.SetStats(c.tel.Log)
	}
	if c.cfg.DB != nil {
		s.db = linkdb.NewBatcher(c.cfg.DB, c.cfg.AppendBatch, c.cfg.AppendInterval)
		s.db.SetStats(c.tel.DB)
	}
	return s
}

// close flushes both writers and stops their interval flushers. It is
// idempotent, so the crawl loop both defers it (goroutine hygiene on error
// paths) and call it explicitly to surface the final flush error.
func (s sinks) close() error {
	var first error
	if s.log != nil {
		if err := s.log.Close(); err != nil {
			first = err
		}
	}
	if s.db != nil {
		if err := s.db.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
