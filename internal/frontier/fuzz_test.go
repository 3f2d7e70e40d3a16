package frontier

import (
	"fmt"
	"math"
	"testing"
)

// FuzzFrontierOps drives an arbitrary push/pop sequence against every
// queue Kind and checks it against a brute-force model: the live items
// with their priorities and insertion sequence, from which the expected
// next pop is found by a linear scan —
//
//   - KindHeap: highest priority, FIFO among equal priorities;
//   - KindBucket: highest floor(priority) class, FIFO inside a class
//     (so -0.25 and -1 share class -1, the rule limited-distance's
//     negative distance priorities depend on);
//   - KindFIFO: insertion order, priority ignored.
//
// Pop order, Len and MaxLen must agree with the model after every op.
//
// Input encoding: byte 0 picks the kind (mod 3); each later byte is one
// op: high bit clear = push an item whose priority derives from the
// value (whole and quarter steps in [-3, 3.75]); top bits 10 = pop; top
// bits 11 = push a batch of 1–8 items (low 3 bits) at one priority
// (bits 3–5: half steps in [-2, 1.5]) through PushAll, which the model
// takes as that many single pushes.
func FuzzFrontierOps(f *testing.F) {
	f.Add([]byte{byte(KindHeap), 10, 20, 0x85, 30, 0x81})
	f.Add([]byte{byte(KindBucket), 1, 2, 3, 4, 5, 0x1A, 0x90, 0x91, 0x92})
	f.Add([]byte{byte(KindFIFO), 0x7F, 0x00, 0xFF, 0x40, 0x80})
	f.Add([]byte{byte(KindBucket), 0xC7, 0x05, 0x80, 0xE3, 0xDF, 0x85, 0x86, 0xC0, 0x81})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		kind := Kind(data[0] % 3)
		ops := data[1:]
		if len(ops) > 4096 {
			ops = ops[:4096]
		}

		type live struct {
			item string
			prio float64
		}
		q := New[string](kind)
		var model []live // insertion order: index order is the FIFO tie-break
		rank := func(p float64) float64 {
			switch kind {
			case KindHeap:
				return p
			case KindBucket:
				return math.Floor(p)
			default:
				return 0
			}
		}
		high := 0

		var batch []string
		for i, op := range ops {
			switch {
			case op&0x80 == 0:
				item := fmt.Sprintf("p%d", i)
				prio := float64(int(op%7)-3) + float64((op>>3)%4)/4
				q.Push(item, prio)
				model = append(model, live{item, prio})
				high = max(high, len(model))
			case op&0xC0 == 0xC0:
				prio := float64((op>>3)&7)/2 - 2
				batch = batch[:0]
				for k := 0; k <= int(op&7); k++ {
					batch = append(batch, fmt.Sprintf("p%d.%d", i, k))
				}
				q.PushAll(batch, prio)
				for _, item := range batch {
					model = append(model, live{item, prio})
				}
				high = max(high, len(model))
			default:
				item, ok := q.Pop()
				if len(model) == 0 {
					if ok {
						t.Fatalf("op %d: kind %d popped %q from an empty queue", i, kind, item)
					}
				} else {
					best := 0
					for j := 1; j < len(model); j++ {
						if rank(model[j].prio) > rank(model[best].prio) {
							best = j
						}
					}
					if want := model[best].item; !ok || item != want {
						t.Fatalf("op %d: kind %d popped (%q, %v), model wants %q", i, kind, item, ok, want)
					}
					model = append(model[:best], model[best+1:]...)
				}
			}
			if q.Len() != len(model) || q.MaxLen() != high {
				t.Fatalf("op %d: kind %d Len/MaxLen = %d/%d, model %d/%d",
					i, kind, q.Len(), q.MaxLen(), len(model), high)
			}
		}
	})
}
