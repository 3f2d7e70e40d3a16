package frontier

import (
	"testing"
	"testing/quick"
)

func drain[T any](q Queue[T]) []T {
	var out []T
	for {
		item, ok := q.Pop()
		if !ok {
			return out
		}
		out = append(out, item)
	}
}

func testQueues() map[string]func() Queue[int] {
	return map[string]func() Queue[int]{
		"fifo":   func() Queue[int] { return NewFIFO[int]() },
		"heap":   func() Queue[int] { return NewHeap[int]() },
		"bucket": func() Queue[int] { return NewBucket[int]() },
	}
}

func TestEmptyPop(t *testing.T) {
	for name, mk := range testQueues() {
		q := mk()
		if _, ok := q.Pop(); ok {
			t.Errorf("%s: Pop on empty reported ok", name)
		}
		if q.Len() != 0 || q.MaxLen() != 0 {
			t.Errorf("%s: empty queue Len/MaxLen nonzero", name)
		}
	}
}

func TestFIFOOrder(t *testing.T) {
	for name, mk := range testQueues() {
		q := mk()
		for i := 0; i < 100; i++ {
			q.Push(i, 0) // single priority: all queues must behave FIFO
		}
		got := drain(q)
		if len(got) != 100 {
			t.Fatalf("%s: drained %d items", name, len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("%s: position %d = %d, want %d", name, i, v, i)
			}
		}
	}
}

func TestPriorityOrder(t *testing.T) {
	for _, name := range []string{"heap", "bucket"} {
		q := testQueues()[name]()
		q.Push(10, 0)
		q.Push(20, 1)
		q.Push(11, 0)
		q.Push(21, 1)
		q.Push(30, 2)
		got := drain(q)
		want := []int{30, 20, 21, 10, 11}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: order = %v, want %v", name, got, want)
			}
		}
	}
}

func TestNegativePriorities(t *testing.T) {
	// Limited-distance prioritized mode uses priority -d; distance 0
	// must pop before distance 3.
	for _, name := range []string{"heap", "bucket"} {
		q := testQueues()[name]()
		q.Push(3, -3)
		q.Push(0, 0)
		q.Push(1, -1)
		got := drain(q)
		want := []int{0, 1, 3}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: order = %v, want %v", name, got, want)
			}
		}
	}
}

func TestInterleavedPushPop(t *testing.T) {
	for name, mk := range testQueues() {
		q := mk()
		q.Push(1, 0)
		q.Push(2, 0)
		if v, _ := q.Pop(); v != 1 {
			t.Errorf("%s: first pop = %d", name, v)
		}
		q.Push(3, 0)
		got := drain(q)
		if len(got) != 2 || got[0] != 2 || got[1] != 3 {
			t.Errorf("%s: rest = %v", name, got)
		}
	}
}

func TestMaxLenHighWaterMark(t *testing.T) {
	for name, mk := range testQueues() {
		q := mk()
		for i := 0; i < 10; i++ {
			q.Push(i, float64(i%3))
		}
		for i := 0; i < 5; i++ {
			q.Pop()
		}
		q.Push(99, 0)
		if q.MaxLen() != 10 {
			t.Errorf("%s: MaxLen = %d, want 10", name, q.MaxLen())
		}
		if q.Len() != 6 {
			t.Errorf("%s: Len = %d, want 6", name, q.Len())
		}
	}
}

func TestFIFORingWrapAround(t *testing.T) {
	q := NewFIFO[int]()
	// Force many wrap-arounds at small capacity.
	for round := 0; round < 50; round++ {
		for i := 0; i < 3; i++ {
			q.Push(round*3+i, 0)
		}
		for i := 0; i < 3; i++ {
			want := round*3 + i
			if v, ok := q.Pop(); !ok || v != want {
				t.Fatalf("round %d: got %d, want %d", round, v, want)
			}
		}
	}
}

// TestFIFOGrowWrapped grows the ring while its items wrap past the end
// (head after tail), by Push and by PushAll: both runs must move, in
// order, and PushAll's own copy must wrap too.
func TestFIFOGrowWrapped(t *testing.T) {
	for _, batched := range []bool{false, true} {
		q := NewFIFO[int]()
		next, want := 0, 0
		push := func(k int) {
			items := make([]int, k)
			for i := range items {
				items[i] = next
				next++
			}
			if batched {
				q.PushAll(items, 0)
				return
			}
			for _, it := range items {
				q.Push(it, 0)
			}
		}
		pop := func(k int) {
			for ; k > 0; k-- {
				if v, ok := q.Pop(); !ok || v != want {
					t.Fatalf("batched=%v: popped (%d, %v), want %d", batched, v, ok, want)
				}
				want++
			}
		}
		push(4) // ring of 4, full
		pop(3)  // head at slot 3
		push(3) // wraps: slots 3, 0, 1, 2 hold 3..6, head > tail
		if q.n != len(q.buf) || q.head+q.n <= len(q.buf) {
			t.Fatalf("batched=%v: ring not full and wrapped before growing (head %d, n %d, cap %d)", batched, q.head, q.n, len(q.buf))
		}
		push(6) // grows past 8 with the ring wrapped
		if len(q.buf) != 16 {
			t.Fatalf("batched=%v: ring of %d slots, want 16", batched, len(q.buf))
		}
		pop(5)
		push(11) // fills the grown ring, wrapping it
		pop(next - want)
		if q.Len() != 0 || q.MaxLen() != 16 || len(q.buf) != 16 {
			t.Fatalf("batched=%v: Len/MaxLen %d/%d, want 0/16", batched, q.Len(), q.MaxLen())
		}
	}
}

func TestBucketFractionalPrioritiesShareClass(t *testing.T) {
	q := NewBucket[int]()
	q.Push(1, 0.9) // class 0
	q.Push(2, 0.1) // class 0
	q.Push(3, 1.0) // class 1
	got := drain(q)
	want := []int{3, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestBucketNegativeFractionalFloors(t *testing.T) {
	q := NewBucket[int]()
	q.Push(1, -0.5) // class -1
	q.Push(2, 0)    // class 0
	got := drain(q)
	if got[0] != 2 || got[1] != 1 {
		t.Fatalf("order = %v", got)
	}
}

// TestBucketClassReuseAfterDrain drains a class and refills it, by Push
// and by PushAll, interleaved with a lower class: pop order is class
// then FIFO, and Len and MaxLen follow the items, whatever the class
// bookkeeping keeps.
func TestBucketClassReuseAfterDrain(t *testing.T) {
	q := NewBucket[int]()
	q.Push(1, 1)
	q.Push(2, 0)
	q.Pop() // drains class 1
	q.Push(3, 1)
	got := drain(q)
	if len(got) != 2 || got[0] != 3 || got[1] != 2 {
		t.Fatalf("order after class reuse = %v", got)
	}

	q = NewBucket[int]()
	q.PushAll([]int{10, 11, 12}, 1)
	q.Push(0, 0)
	for _, want := range []int{10, 11, 12} {
		if v, _ := q.Pop(); v != want {
			t.Fatalf("popped %d, want %d", v, want)
		}
	}
	if q.Len() != 1 || q.MaxLen() != 4 {
		t.Fatalf("after draining class 1: Len/MaxLen %d/%d, want 1/4", q.Len(), q.MaxLen())
	}
	q.Push(13, 1.5)
	q.PushAll([]int{14, 15}, 1)
	q.Push(1, 0)
	q.PushAll([]int{20, 21}, 2)
	if q.Len() != 7 || q.MaxLen() != 7 {
		t.Fatalf("after refilling: Len/MaxLen %d/%d, want 7/7", q.Len(), q.MaxLen())
	}
	got = drain(q)
	want := []int{20, 21, 13, 14, 15, 0, 1}
	if len(got) != len(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if q.Len() != 0 || q.MaxLen() != 7 {
		t.Fatalf("drained: Len/MaxLen %d/%d, want 0/7", q.Len(), q.MaxLen())
	}
	q.Push(30, 1)
	if v, ok := q.Pop(); !ok || v != 30 {
		t.Fatalf("refilled after a full drain: popped (%d, %v), want 30", v, ok)
	}
}

func TestNewKinds(t *testing.T) {
	if _, ok := New[int](KindFIFO).(*FIFO[int]); !ok {
		t.Error("New(KindFIFO) wrong type")
	}
	if _, ok := New[int](KindBucket).(*Bucket[int]); !ok {
		t.Error("New(KindBucket) wrong type")
	}
	if _, ok := New[int](KindHeap).(*Heap[int]); !ok {
		t.Error("New(KindHeap) wrong type")
	}
}

// Property: for any push sequence with small integer priorities, heap
// and bucket agree exactly (same order), and both respect
// priority-then-FIFO order.
func TestHeapBucketAgreeQuick(t *testing.T) {
	f := func(prios []int8) bool {
		h := NewHeap[int]()
		b := NewBucket[int]()
		for i, p := range prios {
			pr := float64(p % 5)
			h.Push(i, pr)
			b.Push(i, pr)
		}
		hv := drain[int](h)
		bv := drain[int](b)
		if len(hv) != len(bv) {
			return false
		}
		for i := range hv {
			if hv[i] != bv[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: every queue conserves items — whatever is pushed is popped
// exactly once.
func TestConservationQuick(t *testing.T) {
	for name, mk := range testQueues() {
		f := func(prios []uint8) bool {
			q := mk()
			for i, p := range prios {
				q.Push(i, float64(p))
			}
			got := drain(q)
			if len(got) != len(prios) {
				return false
			}
			seen := make(map[int]bool, len(got))
			for _, v := range got {
				if seen[v] {
					return false
				}
				seen[v] = true
			}
			return q.Len() == 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Property: heap pops are monotone non-increasing in priority when no
// interleaved pushes occur.
func TestHeapMonotoneQuick(t *testing.T) {
	f := func(prios []int16) bool {
		q := NewHeap[int]()
		for i, p := range prios {
			q.Push(i, float64(p))
		}
		last := 1e18
		for {
			item, ok := q.Pop()
			if !ok {
				return true
			}
			p := float64(prios[item])
			if p > last {
				return false
			}
			last = p
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
