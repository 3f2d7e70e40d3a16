package frontier

import (
	"testing"
	"testing/quick"
)

func TestIndexedHeapBasics(t *testing.T) {
	h := NewIndexedHeap[string]()
	if _, ok := h.Pop(); ok {
		t.Error("Pop on empty")
	}
	if !h.Push("a", 1) || !h.Push("b", 3) || !h.Push("c", 2) {
		t.Error("fresh pushes should report inserted")
	}
	if h.Len() != 3 {
		t.Errorf("Len = %d", h.Len())
	}
	for _, want := range []string{"b", "c", "a"} {
		got, ok := h.Pop()
		if !ok || got != want {
			t.Fatalf("Pop = %q, want %q", got, want)
		}
	}
}

func TestIndexedHeapDedup(t *testing.T) {
	h := NewIndexedHeap[string]()
	h.Push("x", 1)
	if h.Push("x", 1) {
		t.Error("duplicate push reported as inserted")
	}
	if h.Len() != 1 {
		t.Errorf("Len = %d after duplicate push", h.Len())
	}
}

func TestIndexedHeapUpgradeOnly(t *testing.T) {
	h := NewIndexedHeap[string]()
	h.Push("low", 0)
	h.Push("mid", 5)
	// Upgrading "low" above "mid" reorders.
	h.Push("low", 9)
	if p, _ := h.Priority("low"); p != 9 {
		t.Errorf("priority after upgrade = %v", p)
	}
	// Downgrade attempts are ignored.
	h.Push("low", 1)
	if p, _ := h.Priority("low"); p != 9 {
		t.Errorf("downgrade applied: %v", p)
	}
	if got, _ := h.Pop(); got != "low" {
		t.Errorf("first pop = %q, want upgraded key", got)
	}
}

func TestIndexedHeapFIFOTies(t *testing.T) {
	h := NewIndexedHeap[int]()
	for i := 0; i < 50; i++ {
		h.Push(i, 0)
	}
	for i := 0; i < 50; i++ {
		got, _ := h.Pop()
		if got != i {
			t.Fatalf("tie order broken at %d: got %d", i, got)
		}
	}
}

func TestIndexedHeapContains(t *testing.T) {
	h := NewIndexedHeap[string]()
	h.Push("k", 1)
	if !h.Contains("k") || h.Contains("nope") {
		t.Error("Contains wrong")
	}
	h.Pop()
	if h.Contains("k") {
		t.Error("popped key still contained")
	}
}

// Property: for any sequence of pushes/upgrades, pops come out in
// non-increasing priority order with each key at most once.
func TestIndexedHeapOrderQuick(t *testing.T) {
	f := func(ops []uint16) bool {
		h := NewIndexedHeap[uint8]()
		want := map[uint8]float64{}
		for _, op := range ops {
			key := uint8(op)
			prio := float64(op >> 8 % 16)
			h.Push(key, prio)
			if cur, ok := want[key]; !ok || prio > cur {
				want[key] = prio
			}
		}
		if h.Len() != len(want) {
			return false
		}
		last := 1e18
		seen := map[uint8]bool{}
		for {
			key, ok := h.Pop()
			if !ok {
				break
			}
			if seen[key] {
				return false
			}
			seen[key] = true
			p := want[key]
			if p > last {
				return false
			}
			last = p
		}
		return len(seen) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: heap invariant survives interleaved pushes, upgrades, pops.
func TestIndexedHeapInterleavedQuick(t *testing.T) {
	f := func(ops []int16) bool {
		h := NewIndexedHeap[int16]()
		for _, op := range ops {
			if op%4 == 0 {
				h.Pop()
			} else {
				h.Push(op%64, float64(op%13))
			}
		}
		// Drain: priorities non-increasing (read the priority before the
		// pop via the in-package view of the heap top).
		last := 1e18
		for h.Len() > 0 {
			top := h.keys[0]
			p, ok := h.Priority(top)
			if !ok || p > last {
				return false
			}
			last = p
			got, ok := h.Pop()
			if !ok || got != top {
				return false
			}
			// Internal index map stays consistent.
			if len(h.pos) != len(h.keys) || len(h.prio) != len(h.keys) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a heap rebuilt from Keys, each key at its Priority, pops the
// same sequence as the original under any further pushes, upgrades and
// pops — whereas one rebuilt in pop order can break a later upgrade's tie.
func TestIndexedHeapKeysRebuildQuick(t *testing.T) {
	f := func(before, after []int16) bool {
		h := NewIndexedHeap[int16]()
		apply := func(h *IndexedHeap[int16], op int16) (int16, bool) {
			if op%4 == 0 {
				return h.Pop()
			}
			h.Push(op%64, float64(op%5))
			return 0, true
		}
		for _, op := range before {
			apply(h, op)
		}
		re := NewIndexedHeap[int16]()
		for _, k := range h.Keys() {
			p, _ := h.Priority(k)
			re.Push(k, p)
		}
		for _, op := range append(after, make([]int16, 64)...) { // zeros pop
			a, aok := apply(h, op)
			b, bok := apply(re, op)
			if a != b || aok != bok || h.Len() != re.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
