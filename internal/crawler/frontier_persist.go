package crawler

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"langcrawl/internal/checkpoint"
	"langcrawl/internal/frontier"
)

// Frontier persistence: a simple length-prefixed record file holding the
// pending (url, dist, priority) entries of an interrupted crawl, in pop
// order, so a resumed run continues exactly where the budget or the
// operator stopped it.

var frontierMagic = []byte("LCFRONT1\n")

// saveFrontier drains queue into path via the checkpoint package's
// atomic-write helper (temp file, fsync, rename, parent-dir fsync), so
// a crash mid-save leaves either the old frontier or the new one — and
// a completed save survives power loss, not just process death. An
// emptied frontier removes the file instead, so stale state never
// shadows a completed crawl. Each entry is written at its effective
// priority (breaker demotions included), so a run resumed from the file
// pops in the order this one would have.
func saveFrontier(path string, queue frontier.Queue[qitem]) error {
	fsys := checkpoint.OSFS{}
	if queue.Len() == 0 {
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		// Make the removal durable too: a resurrected frontier file would
		// re-crawl a finished frontier's tail.
		if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
			return err
		}
		return nil
	}
	buf := append([]byte(nil), frontierMagic...)
	for {
		it, ok := queue.Pop()
		if !ok {
			break
		}
		buf = binary.AppendUvarint(buf, uint64(len(it.url)))
		buf = append(buf, it.url...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(it.dist))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(it.effPrio()))
	}
	return checkpoint.WriteFileAtomic(fsys, path, buf)
}

// loadFrontier reads a saved frontier; a missing file is an empty
// frontier. Entries come back in their saved pop order.
//
// A file that simply stops mid-record — the tail a crash leaves behind
// when a batched write was cut off — is not an error: the complete
// prefix is returned with torn=true and the partial record is dropped,
// so a resumed crawl loses at most one frontier entry instead of
// refusing to start. A file whose bytes are wrong (bad magic, absurd
// lengths) still fails hard: that is damage, not truncation.
func loadFrontier(path string) (items []qitem, torn bool, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	hdr := make([]byte, len(frontierMagic))
	if _, err := io.ReadFull(r, hdr); err != nil || string(hdr) != string(frontierMagic) {
		return nil, false, errors.New("not a frontier file")
	}
	for {
		ulen, err := binary.ReadUvarint(r)
		if err == io.EOF {
			return items, false, nil
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return items, true, nil // cut mid-length: torn tail
		}
		if err != nil || ulen > 1<<20 {
			return nil, false, errors.New("corrupt frontier file")
		}
		buf := make([]byte, ulen+12)
		if _, err := io.ReadFull(r, buf); err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				return items, true, nil // cut mid-record: torn tail
			}
			return nil, false, err
		}
		items = append(items, qitem{
			url:  string(buf[:ulen]),
			dist: int32(binary.LittleEndian.Uint32(buf[ulen : ulen+4])),
			prio: math.Float64frombits(binary.LittleEndian.Uint64(buf[ulen+4:])),
		})
	}
}

// loadFrontierWarn is the crawl loop's entry point: a torn tail is worth a
// warning on stderr but never aborts the resume.
func loadFrontierWarn(path string) ([]qitem, error) {
	items, torn, err := loadFrontier(path)
	if err != nil {
		return nil, err
	}
	if torn {
		fmt.Fprintf(os.Stderr,
			"crawler: warning: frontier file %s has a torn tail (interrupted save); resuming with %d intact entries\n",
			path, len(items))
	}
	return items, nil
}
