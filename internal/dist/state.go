package dist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

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
	w := &wbuf{}
	w.raw([]byte(stateMagic))
	w.u64(stateVersion)
	w.u64(uint64(len(c.pts)))
	w.u64(c.next)
	w.u64(uint64(c.ack))
	for i := range c.pts {
		pt := &c.pts[i]
		w.u64(pt.epoch)
		w.str(pt.lastOwner)
		n := len(pt.pending)
		for _, b := range pt.inflight {
			n += len(b.Links)
		}
		w.u64(uint64(n))
		// Inflight first, in batch-ID order — the same front-of-queue
		// position expiry gives redelivered work.
		for _, b := range inflightByID(pt.inflight) {
			for _, l := range b.Links {
				w.link(l)
			}
		}
		for _, l := range pt.pending {
			w.link(l)
		}
	}
	urls := c.seen.URLs()
	w.u64(uint64(len(urls)))
	for _, u := range urls {
		w.str(u)
	}
	w.u64(0) // the retired Bloom slot, kept empty so older snapshots still restore
	sum := crc32.ChecksumIEEE(w.b)
	w.b = binary.LittleEndian.AppendUint32(w.b, sum)
	return w.b
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
	r := &rbuf{b: body[len(stateMagic):]}
	if v := r.u64(); r.err == nil && v != stateVersion {
		return fmt.Errorf("dist: snapshot %s: unsupported version %d", c.opt.CheckpointPath, v)
	}
	nparts := r.count(r.u64(), 1)
	next := r.u64()
	acked := r.u64()
	pts := make([]partition, nparts)
	for i := range pts {
		pts[i].inflight = make(map[uint64]*Batch)
		pts[i].epoch = r.u64()
		pts[i].lastOwner = r.str()
		n := r.count(r.u64(), minLinkBytes)
		if n > 0 {
			pts[i].pending = make([]Link, n)
			for j := range pts[i].pending {
				pts[i].pending[j] = r.link()
			}
		}
	}
	nurls := r.count(r.u64(), 1)
	urls := make([]string, nurls)
	for i := range urls {
		urls[i] = r.str()
	}
	r.off += r.count(r.u64(), 1) // skip the retired Bloom slot
	if r.err != nil {
		return fmt.Errorf("dist: snapshot %s: %v", c.opt.CheckpointPath, r.err)
	}
	if r.off != len(r.b) {
		return fmt.Errorf("dist: snapshot %s: %d trailing bytes", c.opt.CheckpointPath, len(r.b)-r.off)
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
