package dist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"langcrawl/internal/binfmt"
	"langcrawl/internal/checkpoint"
)

// Coordinator snapshot codec. One self-describing file, written with
// fsync-then-rename atomicity (checkpoint.WriteFileAtomic): magic,
// version, progress counters, per-partition epoch + frontier, the
// global seen set, and a CRC32 trailer. Inflight batches are folded
// into their partition's pending links at write time — a restart cannot
// know which deliveries survived, so it redelivers all of them and
// leans on the protocol's dedup, the same at-least-once posture a lease
// expiry takes.
//
// Fencing across restarts: epochs and batch IDs granted after the
// snapshot was written are unknown to the restored coordinator, so a
// surviving worker could otherwise collide with post-restart grants. On
// restore every partition epoch and the batch-ID cursor jump by a wide
// margin, putting all post-restart tokens strictly past anything a
// pre-crash worker can present.

const (
	stateMagic   = "LCDIST1\n"
	stateVersion = 1

	// restartEpochJump / restartBatchJump fence pre-crash tokens after a
	// restore (see above).
	restartEpochJump = 1 << 20
	restartBatchJump = 1 << 32
)

// encodeState serializes the coordinator under c.mu.
func (c *Coordinator) encodeState() []byte {
	b := append([]byte(nil), stateMagic...)
	b = binary.AppendUvarint(b, stateVersion)
	b = binary.AppendUvarint(b, uint64(len(c.pts)))
	b = binary.AppendUvarint(b, c.next)
	b = binary.AppendUvarint(b, uint64(c.ack))
	for i := range c.pts {
		pt := &c.pts[i]
		b = binary.AppendUvarint(b, pt.epoch)
		b = binfmt.AppendString(b, pt.lastOwner)
		n := len(pt.pending)
		for _, bt := range pt.inflight {
			n += len(bt.Links)
		}
		b = binary.AppendUvarint(b, uint64(n))
		// Inflight first, in batch-ID order — the same front-of-queue
		// position expiry gives redelivered work.
		for _, bt := range inflightByID(pt.inflight) {
			for _, l := range bt.Links {
				b = appendLink(b, l)
			}
		}
		for _, l := range pt.pending {
			b = appendLink(b, l)
		}
	}
	b = binfmt.AppendList(b, c.seen.URLs(), binfmt.AppendString)
	b = binfmt.AppendBytes(b, nil) // the retired Bloom slot, kept empty so older snapshots still restore
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// snapshotLocked writes the current state to CheckpointPath.
func (c *Coordinator) snapshotLocked() error {
	if c.opt.CheckpointPath == "" {
		return nil
	}
	data := c.encodeState()
	if err := checkpoint.WriteFileAtomic(c.opt.FS, c.opt.CheckpointPath, data); err != nil {
		return fmt.Errorf("dist: snapshot: %w", err)
	}
	c.ops = 0
	return nil
}

// restore loads CheckpointPath into a freshly constructed coordinator.
func (c *Coordinator) restore() error {
	data, err := c.opt.FS.ReadFile(c.opt.CheckpointPath)
	if err != nil {
		return fmt.Errorf("dist: reading snapshot: %w", err)
	}
	if len(data) < len(stateMagic)+4 || string(data[:len(stateMagic)]) != stateMagic {
		return fmt.Errorf("dist: snapshot %s: bad magic", c.opt.CheckpointPath)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return fmt.Errorf("dist: snapshot %s: CRC mismatch", c.opt.CheckpointPath)
	}
	r := binfmt.NewReader(body[len(stateMagic):])
	if v := r.Uvarint(); r.Err() == nil && v != stateVersion {
		return fmt.Errorf("dist: snapshot %s: unsupported version %d", c.opt.CheckpointPath, v)
	}
	nparts := r.Count(r.Uvarint(), 1)
	next := r.Uvarint()
	acked := r.Uvarint()
	pts := make([]partition, nparts)
	for i := range pts {
		pts[i].inflight = make(map[uint64]*Batch)
		pts[i].epoch = r.Uvarint()
		pts[i].lastOwner = r.Str()
		pts[i].pending = readLinks(r)
	}
	urls := binfmt.List(r, 1, (*binfmt.Reader).Str)
	r.Bytes() // the retired Bloom slot
	if r.Err() != nil {
		return fmt.Errorf("dist: snapshot %s: %v", c.opt.CheckpointPath, r.Err())
	}
	if r.Len() != 0 {
		return fmt.Errorf("dist: snapshot %s: %d trailing bytes", c.opt.CheckpointPath, r.Len())
	}
	for i := range pts {
		pts[i].epoch += restartEpochJump
	}
	c.pts = pts
	c.next = next + restartBatchJump
	c.ack = int(acked)
	c.seen.Restore(urls)
	return nil
}

// inflightByID returns a partition's unacked batches in delivery order.
func inflightByID(m map[uint64]*Batch) []*Batch {
	out := make([]*Batch, 0, len(m))
	for _, b := range m {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
