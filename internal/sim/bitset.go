package sim

import (
	"encoding/binary"
	"fmt"

	"langcrawl/internal/webgraph"
)

// bitset is the crawl's visited set, one bit per page: 1 M pages take
// 128 KB, against 1 MB as a []bool, so the check on every out-link of
// every visited page mostly hits cache.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) has(id webgraph.PageID) bool { return b[id>>6]&(1<<(id&63)) != 0 }

func (b bitset) set(id webgraph.PageID) { b[id>>6] |= 1 << (id & 63) }

// bytes returns the set as a checkpoint stores it: an LSB-first bitmap
// of (n+7)/8 bytes, bit i of byte j being page 8j+i. That is the
// words' little-endian bytes, cut at the last page.
func (b bitset) bytes(n int) []byte {
	out := make([]byte, 8*len(b))
	for i, w := range b {
		binary.LittleEndian.PutUint64(out[8*i:], w)
	}
	return out[:(n+7)/8]
}

// loadBitset reads an n-page set from its bytes form, ignoring any bit
// past the last page.
func loadBitset(packed []byte, n int) (bitset, error) {
	if len(packed) != (n+7)/8 {
		return nil, fmt.Errorf("sim: visited bitmap is %d bytes, want %d for %d pages", len(packed), (n+7)/8, n)
	}
	var buf [8]byte
	b := newBitset(n)
	for i := range b {
		clear(buf[:])
		copy(buf[:], packed[8*i:])
		b[i] = binary.LittleEndian.Uint64(buf[:])
	}
	if r := n % 64; r != 0 {
		b[len(b)-1] &= 1<<r - 1
	}
	return b, nil
}

// bools expands the set's first n pages, for Result.Visited.
func (b bitset) bools(n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = b.has(webgraph.PageID(i))
	}
	return out
}
