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

// Queue is the frontier abstraction used by the crawl engine.
type Queue[T any] interface {
	// Push enqueues item with the given priority. Higher priorities pop
	// first; equal priorities pop in insertion order.
	Push(item T, priority float64)
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
// class). The ring buffer keeps Push/Pop O(1) without unbounded slice
// growth on long crawls.
type FIFO[T any] struct {
	buf        []T
	head, tail int // tail = next write slot; head = next read slot
	n          int
	maxN       int
}

// NewFIFO returns an empty FIFO queue.
func NewFIFO[T any]() *FIFO[T] { return &FIFO[T]{} }

// Push appends item. The priority argument is ignored.
func (q *FIFO[T]) Push(item T, _ float64) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[q.tail] = item
	q.tail = (q.tail + 1) % len(q.buf)
	q.n++
	if q.n > q.maxN {
		q.maxN = q.n
	}
}

// Pop removes and returns the oldest item.
func (q *FIFO[T]) Pop() (T, bool) {
	var zero T
	if q.n == 0 {
		return zero, false
	}
	item := q.buf[q.head]
	q.buf[q.head] = zero // release for GC
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return item, true
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return q.n }

// MaxLen returns the high-water mark.
func (q *FIFO[T]) MaxLen() int { return q.maxN }

func (q *FIFO[T]) grow() {
	next := make([]T, maxInt(4, len(q.buf)*2))
	for i := 0; i < q.n; i++ {
		next[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = next
	q.head, q.tail = 0, q.n
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
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
// class count.
type Bucket[T any] struct {
	classes []int // sorted descending
	queues  map[int]*FIFO[T]
	n       int
	maxN    int
}

// NewBucket returns an empty bucket queue.
func NewBucket[T any]() *Bucket[T] {
	return &Bucket[T]{queues: make(map[int]*FIFO[T])}
}

// Push enqueues item in the class floor(priority).
func (q *Bucket[T]) Push(item T, priority float64) {
	class := int(priority)
	if f := float64(class); f > priority { // floor for negatives
		class--
	}
	fifo, ok := q.queues[class]
	if !ok {
		fifo = NewFIFO[T]()
		q.queues[class] = fifo
		q.insertClass(class)
	}
	fifo.Push(item, priority)
	q.n++
	if q.n > q.maxN {
		q.maxN = q.n
	}
}

func (q *Bucket[T]) insertClass(class int) {
	// Insertion sort into the descending class list; class counts are
	// tiny (2 for soft-focused, N+1 for limited-distance).
	i := 0
	for i < len(q.classes) && q.classes[i] > class {
		i++
	}
	q.classes = append(q.classes, 0)
	copy(q.classes[i+1:], q.classes[i:])
	q.classes[i] = class
}

// Pop removes and returns the next item from the highest non-empty class.
func (q *Bucket[T]) Pop() (T, bool) {
	var zero T
	for len(q.classes) > 0 {
		class := q.classes[0]
		fifo := q.queues[class]
		if item, ok := fifo.Pop(); ok {
			q.n--
			return item, true
		}
		// Class drained: drop it; it is re-created on demand.
		q.classes = q.classes[1:]
		delete(q.queues, class)
	}
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
