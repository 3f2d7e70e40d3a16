package dist

import (
	"fmt"
	"testing"
)

// TestPartitionMapPinned pins the host → partition map and the hash
// behind it. Coordinator checkpoints and outstanding leases record
// partition numbers, so a change here would strand queued URLs on the
// wrong partition after an upgrade: the values are recorded, not derived.
func TestPartitionMapPinned(t *testing.T) {
	parts := []struct {
		host       string
		p2, p4, p7 int
	}{
		{"", 1, 3, 3},
		{"a", 0, 0, 2},
		{"a.test", 1, 3, 4},
		{"b.test", 1, 3, 6},
		{"www.example.co.th", 1, 3, 6},
		{"thai0.test", 0, 2, 6},
		{"thai1.test", 0, 0, 1},
		{"thai17.test", 0, 0, 5},
		{"jp3.test", 1, 3, 1},
		{"www.sanook.com", 0, 2, 1},
		{"www.pantip.com", 0, 2, 6},
		{"www.manager.co.th", 0, 0, 0},
		{"www.asahi.com", 1, 1, 4},
		{"www.yahoo.co.jp", 1, 3, 4},
		{"127.0.0.1", 1, 3, 1},
		{"127.0.0.1:8080", 1, 3, 2},
		{"host-42.example", 1, 3, 6},
		{"xn--12c1fe0br.xn--o3cw4h", 0, 0, 1},
		{"localhost", 0, 0, 3},
		{"news.bbc.co.uk", 1, 3, 0},
	}
	for _, c := range parts {
		for _, pc := range []struct{ n, want int }{{2, c.p2}, {4, c.p4}, {7, c.p7}} {
			if got := PartitionOf(c.host, pc.n); got != pc.want {
				t.Errorf("PartitionOf(%q, %d) = %d, want %d", c.host, pc.n, got, pc.want)
			}
		}
		if got := PartitionOf(c.host, 1); got != 0 {
			t.Errorf("PartitionOf(%q, 1) = %d, want 0", c.host, got)
		}
	}

	// Key lengths either side of the hash's 8-byte word boundary.
	hashes := []struct {
		key  string
		want uint64
	}{
		{"", 0xe3aabcbe89f886b7},
		{"a", 0xc67562a925d08540},
		{"abcdefg", 0xee38e96e8f6a5487},
		{"abcdefgh", 0xc54385e34dc0af80},
		{"abcdefghi", 0xe24792c3e2a37a14},
	}
	for _, c := range hashes {
		if got := hashKey(c.key); got != c.want {
			t.Errorf("hashKey(%q) = %#016x, want %#016x", c.key, got, c.want)
		}
	}
}

func TestPartitionSpread(t *testing.T) {
	// Hostname-shaped keys must spread across partitions (no degenerate
	// partition). Not a statistical test — just a sanity floor.
	used := map[int]int{}
	for i := 0; i < 200; i++ {
		used[PartitionOf(fmt.Sprintf("www%d.example%d.co.th", i, i%17), 8)]++
	}
	if len(used) < 6 {
		t.Errorf("200 hosts landed on only %d of 8 partitions (%v)", len(used), used)
	}
}
