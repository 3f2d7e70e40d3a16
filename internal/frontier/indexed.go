package frontier

import (
	"cmp"
	"slices"
)

// IndexedHeap is a priority queue with at most one entry per key and
// O(log n) in-place priority updates — the classic crawler frontier
// design that avoids duplicate URL entries entirely. It exists as the
// counterpoint to the paper simulator's duplicate-retaining queue: same
// crawl semantics when priorities are only ever upgraded, a fraction of
// the memory. (The sim engine's queue-mode ablation compares the two.)
//
// Higher priorities pop first; ties break FIFO by first insertion.
type IndexedHeap[K comparable] struct {
	keys  []K           // heap of keys
	pos   map[K]int     // key -> index in keys
	prio  map[K]float64 // key -> priority
	seq   map[K]uint64  // key -> insertion sequence (tie-break)
	clock uint64
	maxN  int
}

// NewIndexedHeap returns an empty indexed heap.
func NewIndexedHeap[K comparable]() *IndexedHeap[K] {
	return &IndexedHeap[K]{
		pos:  make(map[K]int),
		prio: make(map[K]float64),
		seq:  make(map[K]uint64),
	}
}

// Len returns the number of queued keys.
func (h *IndexedHeap[K]) Len() int { return len(h.keys) }

// MaxLen returns the high-water mark of Len.
func (h *IndexedHeap[K]) MaxLen() int { return h.maxN }

// Contains reports whether key is queued.
func (h *IndexedHeap[K]) Contains(key K) bool {
	_, ok := h.pos[key]
	return ok
}

// Priority returns the queued priority of key (ok=false if absent).
func (h *IndexedHeap[K]) Priority(key K) (float64, bool) {
	p, ok := h.prio[key]
	return p, ok
}

// Push inserts key at the given priority, or — if key is already queued
// — raises its priority in place when the new one is higher (downgrades
// are ignored: the best known referrer wins). It reports whether the key
// was newly inserted.
func (h *IndexedHeap[K]) Push(key K, priority float64) bool {
	if i, ok := h.pos[key]; ok {
		if priority > h.prio[key] {
			h.prio[key] = priority
			h.up(i)
		}
		return false
	}
	h.clock++
	h.prio[key] = priority
	h.seq[key] = h.clock
	h.keys = append(h.keys, key)
	h.pos[key] = len(h.keys) - 1
	h.up(len(h.keys) - 1)
	if len(h.keys) > h.maxN {
		h.maxN = len(h.keys)
	}
	return true
}

// Pop removes and returns the highest-priority key.
func (h *IndexedHeap[K]) Pop() (K, bool) {
	var zero K
	if len(h.keys) == 0 {
		return zero, false
	}
	top := h.keys[0]
	last := len(h.keys) - 1
	h.swap(0, last)
	h.keys = h.keys[:last]
	delete(h.pos, top)
	delete(h.prio, top)
	delete(h.seq, top)
	if last > 0 {
		h.down(0)
	}
	return top, true
}

// Keys returns the queued keys in first-insertion order. Pushing them in
// that order, each at its Priority, into an empty IndexedHeap builds one
// that pops the same sequence, before and after any later Push: a
// snapshot that needs no drain.
func (h *IndexedHeap[K]) Keys() []K {
	keys := slices.Clone(h.keys)
	slices.SortFunc(keys, func(a, b K) int { return cmp.Compare(h.seq[a], h.seq[b]) })
	return keys
}

func (h *IndexedHeap[K]) less(i, j int) bool {
	a, b := h.keys[i], h.keys[j]
	if h.prio[a] != h.prio[b] {
		return h.prio[a] > h.prio[b]
	}
	return h.seq[a] < h.seq[b]
}

func (h *IndexedHeap[K]) swap(i, j int) {
	h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
	h.pos[h.keys[i]] = i
	h.pos[h.keys[j]] = j
}

func (h *IndexedHeap[K]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *IndexedHeap[K]) down(i int) {
	n := len(h.keys)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.less(l, best) {
			best = l
		}
		if r < n && h.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}
