// Package dist is the fault-tolerant distributed crawl layer: a
// coordinator that owns the host-hash partition map and the global
// frontier, and worker processes that crawl time-bounded partition
// leases with their own crash-safe checkpoints.
//
// The shape follows BUbiNG's agent partitioning and reprocrawl's
// work-dispatcher (see PAPERS.md): hosts are assigned to partitions by
// a deterministic hash of the host name (hashKey), the coordinator
// leases partitions to workers for a TTL renewed by heartbeats, and URL
// batches flow worker-ward while discovered links flow coordinator-ward.
// Delivery is at-least-once: a batch whose lease expires before its ack
// — a SIGKILLed or partitioned worker — returns to the partition's
// pending queue and is redelivered, possibly to a different worker
// (lease migration).
// Duplicates are absorbed at three levels: the coordinator's global
// seen-set refuses re-enqueueing a forwarded URL, each worker's crawl
// checkpoint seen-set and link DB refuse refetching, and the
// conformance suite compares merged output as a set.
//
// Safety invariants the lease edge-case tests hold the coordinator to:
//
//   - Single owner: a partition has at most one unexpired lease; a
//     grant attempt against a leased partition is rejected (counted,
//     never honored), even when fault injection asks for it.
//   - Epoch fencing: every grant increments the partition's epoch, and
//     acks or heartbeat renewals carrying an older epoch are refused —
//     a worker that lost its lease cannot retire work it no longer
//     owns.
//   - No lost URLs: expiry moves a lease's unacked batches back to
//     pending before the partition is granted again; coordinator
//     restart folds inflight batches back the same way.
package dist

import "langcrawl/internal/urlutil"

// Link is one frontier entry in flight between coordinator and worker:
// a normalized URL with the link distance and priority the strategy
// assigned at discovery.
type Link struct {
	URL  string
	Dist int32
	Prio float64
}

// PartitionOf maps a host to its owning partition: hashKey(host) modulo
// the partition count, stable across runs, coordinator restarts, and
// worker counts.
func PartitionOf(host string, partitions int) int {
	if partitions <= 1 {
		return 0
	}
	return int(hashKey(host) % uint64(partitions))
}

// hashKey is a deterministic string hash processing 8 bytes per
// multiply (a wyhash-flavored mix). Determinism matters — coordinator
// checkpoints and leases record partition numbers, so the host →
// partition map must be stable across processes — which rules out
// hash/maphash and its per-process seed; chunked mixing keeps it several
// times cheaper than byte-at-a-time FNV on hostname-length keys.
func hashKey(k string) uint64 {
	const m = 0x9FB21C651E98DF25
	h := 0x9E3779B97F4A7C15 ^ uint64(len(k))
	i := 0
	for ; i+8 <= len(k); i += 8 {
		w := uint64(k[i]) | uint64(k[i+1])<<8 | uint64(k[i+2])<<16 | uint64(k[i+3])<<24 |
			uint64(k[i+4])<<32 | uint64(k[i+5])<<40 | uint64(k[i+6])<<48 | uint64(k[i+7])<<56
		h = (h ^ w) * m
		h ^= h >> 29
	}
	var tail uint64
	for j := i; j < len(k); j++ {
		tail = tail<<8 | uint64(k[j])
	}
	h = (h ^ tail) * m
	h ^= h >> 32
	return h
}

// PartitionOfURL maps a URL to its owning partition via its host.
func PartitionOfURL(url string, partitions int) int {
	return PartitionOf(urlutil.Host(url), partitions)
}
