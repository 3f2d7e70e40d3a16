package charset

import "testing"

// TestProberWeightTables checks every entry of the EUC-JP and Shift_JIS
// weight tables against jisRowWeight of the row the pair decodes to,
// and that every byte which cannot lead a pair has weight zero, which
// is how the prober loops tell a lead from an invalid byte.
func TestProberWeightTables(t *testing.T) {
	for c := 0; c < 256; c++ {
		lead := byte(c)
		want := 0.0
		if lead == 0x8E || eucTrail(lead) {
			// The JIS byte is the lead less its high bit. The code set 2
			// lead 0x8E has no JIS X 0208 row: it wraps to row 0xEE,
			// which weighs as rare.
			want = jisRowWeight(lead&0x7F - 0x20)
			if want <= 0 {
				t.Errorf("lead %#02x: jisRowWeight = %v, want > 0", lead, want)
			}
		}
		if got := eucWeight[lead]; got != want {
			t.Errorf("eucWeight[%#02x] = %v, want %v", lead, got, want)
		}
	}
	for c := 0; c < 256; c++ {
		lead := byte(c)
		if !sjisLead(lead) {
			if sjisWeight[0][lead] != 0 || sjisWeight[1][lead] != 0 {
				t.Errorf("sjisWeight[*][%#02x] = %v, %v on a byte that is no lead", lead, sjisWeight[0][lead], sjisWeight[1][lead])
			}
			continue
		}
		var reported [2]bool // one error per table entry, not per trail
		for d := 0; d < 256; d++ {
			trail := byte(d)
			h, _, ok := sjisToJis(lead, trail)
			even := sjisEven(trail)
			if !ok || reported[even] {
				continue
			}
			want := jisRowWeight(h - 0x20)
			if got := sjisWeight[even][lead]; got != want || got <= 0 {
				reported[even] = true
				t.Errorf("pair %#02x %#02x (row %d): sjisWeight[%d][%#02x] = %v, want %v > 0",
					lead, trail, h-0x20, even, lead, got, want)
			}
		}
	}
}
