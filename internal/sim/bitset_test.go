package sim

import (
	"bytes"
	"testing"

	"langcrawl/internal/webgraph"
)

// TestVisitedBitset holds the visited set's checkpoint form to the
// LSB-first bitmap checkpoints have always stored (bit i of byte j is
// page 8j+i, (n+7)/8 bytes), reads it back, and refuses a bitmap of the
// wrong length.
func TestVisitedBitset(t *testing.T) {
	for _, n := range []int{0, 1, 8, 9, 63, 64, 65, 130} {
		b := newBitset(n)
		want := make([]byte, (n+7)/8)
		for id := 0; id < n; id++ {
			if id%3 == 0 || id%7 == 1 {
				b.set(webgraph.PageID(id))
				want[id/8] |= 1 << (id % 8)
			}
		}
		got := b.bytes(n)
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: bytes %08b, want %08b", n, got, want)
		}
		back, err := loadBitset(got, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		bools := back.bools(n)
		for id := 0; id < n; id++ {
			if bools[id] != b.has(webgraph.PageID(id)) || back.has(webgraph.PageID(id)) != b.has(webgraph.PageID(id)) {
				t.Fatalf("n=%d: page %d round-trips as %v", n, id, bools[id])
			}
		}
		if _, err := loadBitset(append(got, 0), n); err == nil {
			t.Fatalf("n=%d: a bitmap one byte long was accepted", n)
		}
	}
	// Bits past the last page are dropped on load, so a checkpoint
	// written from the set carries none.
	back, err := loadBitset([]byte{0xFF, 0xFF}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.bytes(9); !bytes.Equal(got, []byte{0xFF, 0x01}) {
		t.Fatalf("padding bits survived the load: %08b", got)
	}
}
