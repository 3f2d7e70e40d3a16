package checkpoint

import (
	"fmt"

	"langcrawl/internal/telemetry"
)

// TailScan counts the complete records in raw post-checkpoint bytes of
// an append-only file, returning how many there are and how many bytes
// they span. crawlog.CountTail implements it for the crawl log and the
// link DB, which share one format; the indirection keeps this package
// free of format dependencies (faults imports checkpoint for the FS
// interface, and the format packages' tests reach faults through the
// engines — a direct import here would close that loop into a cycle).
type TailScan func(tail []byte) (records, validBytes int)

// TailFile names one append-only file recovery must make consistent
// with the checkpoint: its path, the manifest field holding its
// durable position, and the scanner that understands its records.
type TailFile struct {
	Path string
	Pos  int64
	Scan TailScan
}

// Recovery reports what RecoverCrawl did: the state to resume from (nil
// when no checkpoint existed) and how much torn tail it had to cut off
// the append-only files.
type Recovery struct {
	State    *State
	Manifest *Manifest

	// TruncatedBytes is the total cut beyond the checkpointed positions.
	TruncatedBytes int64
	// TruncatedRecords counts complete records discarded by the
	// truncations — work the resumed crawl will redo. Partial (torn)
	// trailing records are counted in the byte total but not here.
	TruncatedRecords int
}

// RecoverCrawl loads the newest checkpoint under dir and makes the
// append-only files consistent with it: any bytes past the manifest's
// positions were written after the checkpoint (and may be torn
// mid-record), so they are truncated away and the records among them
// counted as lost. A file shorter than its checkpointed position is a
// hard error — the checkpoint protocol only records positions after
// making them durable, so a short file means the file was swapped or
// damaged, and resuming would lie.
//
// The caller builds the tails from the loaded manifest (the live
// crawler's OpenSinks does). When no checkpoint exists the returned
// Recovery has a nil State, the tails are ignored, and the caller
// starts fresh.
func RecoverCrawl(dir string, fsys FS, st *telemetry.CheckpointStats, tails ...TailFile) (*Recovery, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	if st == nil {
		st = &telemetry.CheckpointStats{}
	}
	state, man, err := Load(dir, fsys)
	if err != nil {
		return nil, err
	}
	rec := &Recovery{State: state, Manifest: man}
	if state == nil {
		return rec, nil
	}
	for _, t := range tails {
		if t.Path == "" {
			continue
		}
		cut, nrec, err := truncateTail(fsys, t.Path, t.Pos, t.Scan)
		if err != nil {
			return nil, err
		}
		rec.TruncatedBytes += cut
		rec.TruncatedRecords += nrec
	}
	st.TruncatedRecords.Add(int64(rec.TruncatedRecords))
	st.Resumes.Inc()
	return rec, nil
}

// truncateTail cuts path back to pos, using scan to count the complete
// records in the discarded tail. A missing file with pos 0 is fine (the
// crawl died before writing anything); missing with pos > 0 is the same
// hard error as a short file.
func truncateTail(fsys FS, path string, pos int64, scan TailScan) (cut int64, records int, err error) {
	size, err := fsys.Stat(path)
	if err != nil {
		if pos == 0 {
			return 0, 0, nil
		}
		return 0, 0, fmt.Errorf("checkpoint: recovery: %s missing but checkpoint says %d bytes were durable: %w", path, pos, err)
	}
	if size < pos {
		return 0, 0, fmt.Errorf("checkpoint: recovery: %s is %d bytes, shorter than checkpointed position %d — file damaged or replaced", path, size, pos)
	}
	if size == pos {
		return 0, 0, nil
	}
	tail, err := fsys.ReadFileAt(path, pos)
	if err != nil {
		return 0, 0, fmt.Errorf("checkpoint: recovery: reading tail of %s: %w", path, err)
	}
	if scan != nil {
		records, _ = scan(tail)
	}
	if err := fsys.Truncate(path, pos); err != nil {
		return 0, 0, fmt.Errorf("checkpoint: recovery: truncating %s to %d: %w", path, pos, err)
	}
	return size - pos, records, nil
}
