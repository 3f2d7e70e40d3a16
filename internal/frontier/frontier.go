// Package frontier provides the URL-queue implementations behind a
// crawler's fetch ordering. The paper's experiments turn entirely on
// queue discipline — breadth-first FIFO, two-class soft-focused
// priorities, distance-class limited-distance queues — and on how large
// the queue grows (its Figure 5–7 queue-size curves), so every queue
// here tracks its high-water mark.
//
// All queues share Queue[T]: Push with a float64 priority where HIGHER
// priority pops first and ties break FIFO (first-in first-out within a
// priority class), which is the discipline the paper's strategies assume.
package frontier

import "slices"

// Queue is the frontier abstraction used by the crawl engine.
type Queue[T any] interface {
	// Push enqueues item with the given priority. Higher priorities pop
	// first; equal priorities pop in insertion order.
	Push(item T, priority float64)
	// PushAll enqueues items in order, all at one priority, exactly as
	// that many Push calls would. It keeps no reference to items.
	PushAll(items []T, priority float64)
	// Pop removes and returns the next item; ok is false when empty.
	Pop() (item T, ok bool)
	// Len returns the number of queued items.
	Len() int
	// MaxLen returns the high-water mark of Len since creation.
	MaxLen() int
}

// --- FIFO -------------------------------------------------------------------

// FIFO is a plain first-in first-out queue; priority is ignored. It is
// the frontier of the breadth-first baseline and of the hard-focused and
// non-prioritized limited-distance strategies (which enqueue a single
// class), and each class of a Bucket. The ring buffer keeps Push/Pop
// O(1) without unbounded slice growth on long crawls; its size is a
// power of two, so a step wraps with a mask rather than a division.
type FIFO[T any] struct {
	buf  []T // empty, or a power of two long
	head int // next read slot; the next write slot is (head+n) & mask
	n    int
	maxN int
}

// NewFIFO returns an empty FIFO queue.
func NewFIFO[T any]() *FIFO[T] { return &FIFO[T]{} }

// Push appends item. The priority argument is ignored.
func (q *FIFO[T]) Push(item T, _ float64) {
	if q.n == len(q.buf) {
		q.grow(q.n + 1)
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = item
	q.n++
	q.maxN = max(q.maxN, q.n)
}

// PushAll appends items in order, in at most two copies. The priority
// argument is ignored.
func (q *FIFO[T]) PushAll(items []T, _ float64) {
	if len(items) == 0 {
		return
	}
	if q.n+len(items) > len(q.buf) {
		q.grow(q.n + len(items))
	}
	k := copy(q.buf[(q.head+q.n)&(len(q.buf)-1):], items)
	copy(q.buf, items[k:])
	q.n += len(items)
	q.maxN = max(q.maxN, q.n)
}

// Pop removes and returns the oldest item.
func (q *FIFO[T]) Pop() (T, bool) {
	var zero T
	if q.n == 0 {
		return zero, false
	}
	item := q.buf[q.head]
	q.buf[q.head] = zero // release for GC
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return item, true
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return q.n }

// MaxLen returns the high-water mark.
func (q *FIFO[T]) MaxLen() int { return q.maxN }

// grow doubles the ring (from 4 slots) until it holds need items, and
// moves the queued items to its front: the run from head to the end of
// the old ring, then the run that wrapped to its start.
func (q *FIFO[T]) grow(need int) {
	size := max(4, 2*len(q.buf))
	for size < need {
		size *= 2
	}
	next := make([]T, size)
	k := copy(next, q.buf[q.head:min(q.head+q.n, len(q.buf))])
	copy(next[k:], q.buf[:q.n-k])
	q.buf, q.head = next, 0
}

// --- Heap -------------------------------------------------------------------

type heapItem[T any] struct {
	item T
	prio float64
	seq  uint64
}

type heapInner[T any] []heapItem[T]

func (h heapInner[T]) less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio // max-heap on priority
	}
	return h[i].seq < h[j].seq // FIFO within a priority
}

func (h heapInner[T]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h heapInner[T]) siftDown(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		best := left
		if right := left + 1; right < n && h.less(right, left) {
			best = right
		}
		if !h.less(best, i) {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// Heap is a priority queue over arbitrary float64 priorities with stable
// FIFO tie-break, for strategies with continuous scores. O(log n) per
// operation. The sift functions are hand-rolled rather than layered on
// container/heap, whose interface boxes every element into an `any` —
// an allocation per push the frontier hot path cannot afford.
type Heap[T any] struct {
	inner heapInner[T]
	seq   uint64
	maxN  int
}

// NewHeap returns an empty heap queue.
func NewHeap[T any]() *Heap[T] { return &Heap[T]{} }

// Push enqueues item at the given priority.
func (q *Heap[T]) Push(item T, priority float64) {
	// Fields are stored one by one and Pop reads only the item: copying a
	// whole heapItem through a temporary stalls store forwarding.
	q.seq++
	n := len(q.inner)
	q.inner = append(q.inner, heapItem[T]{})
	h := &q.inner[n]
	h.item, h.prio, h.seq = item, priority, q.seq
	q.inner.siftUp(n)
	if len(q.inner) > q.maxN {
		q.maxN = len(q.inner)
	}
}

// PushAll pushes each of items at priority, in order.
func (q *Heap[T]) PushAll(items []T, priority float64) {
	for _, it := range items {
		q.Push(it, priority)
	}
}

// Pop removes and returns the highest-priority item.
func (q *Heap[T]) Pop() (T, bool) {
	var zero T
	if len(q.inner) == 0 {
		return zero, false
	}
	item := q.inner[0].item
	n := len(q.inner) - 1
	if n > 0 {
		q.inner[0] = q.inner[n]
	}
	q.inner[n] = heapItem[T]{} // release for GC
	q.inner = q.inner[:n]
	if n > 0 {
		q.inner.siftDown(0)
	}
	return item, true
}

// Peek returns the highest-priority item without removing it.
func (q *Heap[T]) Peek() (T, bool) {
	if len(q.inner) == 0 {
		var zero T
		return zero, false
	}
	return q.inner[0].item, true
}

// Len returns the number of queued items.
func (q *Heap[T]) Len() int { return len(q.inner) }

// MaxLen returns the high-water mark.
func (q *Heap[T]) MaxLen() int { return q.maxN }

// --- Bucket -----------------------------------------------------------------

// Bucket is a small-alphabet priority queue: priorities are truncated to
// integer classes and each class is a FIFO. Pop serves the highest
// non-empty class. This is the natural frontier for the paper's
// strategies — soft-focused has classes {high, low} and prioritized
// limited-distance has classes {0, -1, ..., -N} (priority -d for
// distance d) — and both Push and Pop are O(1) amortized over the tiny
// class count. The classes live in a slice sorted descending with their
// FIFOs beside them, found by a scan rather than a map; a class that
// drains keeps its FIFO and ring, so a crawl that keeps draining and
// refilling a class allocates for it only while its ring grows.
type Bucket[T any] struct {
	classes []int     // sorted descending
	fifos   []FIFO[T] // fifos[i] queues class classes[i]
	top     int       // every class before top is empty
	n       int
	maxN    int
}

// NewBucket returns an empty bucket queue.
func NewBucket[T any]() *Bucket[T] { return &Bucket[T]{} }

// Push enqueues item in the class floor(priority).
func (q *Bucket[T]) Push(item T, priority float64) {
	q.class(priority).Push(item, priority)
	q.n++
	q.maxN = max(q.maxN, q.n)
}

// PushAll enqueues items, in order, in the class floor(priority).
func (q *Bucket[T]) PushAll(items []T, priority float64) {
	if len(items) == 0 {
		return
	}
	q.class(priority).PushAll(items, priority)
	q.n += len(items)
	q.maxN = max(q.maxN, q.n)
}

// class returns the FIFO of class floor(priority), inserting the class
// into the descending list when it is new, and moves top to it: the
// caller is about to fill it.
func (q *Bucket[T]) class(priority float64) *FIFO[T] {
	class := int(priority)
	if f := float64(class); f > priority { // floor for negatives
		class--
	}
	// A linear scan: class counts are tiny (2 for soft-focused, N+1 for
	// limited-distance).
	i := 0
	for i < len(q.classes) && q.classes[i] > class {
		i++
	}
	if i == len(q.classes) || q.classes[i] != class {
		q.classes = slices.Insert(q.classes, i, class)
		q.fifos = slices.Insert(q.fifos, i, FIFO[T]{})
	}
	q.top = min(q.top, i)
	return &q.fifos[i]
}

// Pop removes and returns the next item from the highest non-empty class.
func (q *Bucket[T]) Pop() (T, bool) {
	for ; q.top < len(q.fifos); q.top++ {
		if item, ok := q.fifos[q.top].Pop(); ok {
			q.n--
			return item, true
		}
	}
	var zero T
	return zero, false
}

// Len returns the number of queued items.
func (q *Bucket[T]) Len() int { return q.n }

// MaxLen returns the high-water mark.
func (q *Bucket[T]) MaxLen() int { return q.maxN }

// Kind names a queue implementation; strategies declare which one they
// need.
type Kind uint8

// Queue kinds.
const (
	KindFIFO Kind = iota
	KindBucket
	KindHeap
)

// New constructs a queue of the given kind.
func New[T any](k Kind) Queue[T] {
	switch k {
	case KindBucket:
		return NewBucket[T]()
	case KindHeap:
		return NewHeap[T]()
	default:
		return NewFIFO[T]()
	}
}
