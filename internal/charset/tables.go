package charset

// JIS X 0208 kuten coordinates. A kuten is a (row, cell) pair, both in
// 1..94. The three legacy Japanese encodings are different byte-level
// packings of the same kuten plane:
//
//	ISO-2022-JP: bytes (0x20+row, 0x20+cell) inside an ESC $ B section
//	EUC-JP:      bytes (0xA0+row, 0xA0+cell)
//	Shift_JIS:   a folded packing of two rows per lead byte (see sjis.go)
//
// The table below is a curated subset of the plane: all of rows 4
// (hiragana) and 5 (katakana), the most common row-1 punctuation, and a
// few externally-validated everyday kanji. Internal consistency (encode
// then decode is the identity on mapped runes) is enforced by tests; the
// marked entries are additionally validated against well-known reference
// byte sequences (e.g. 日本 = C6FC CBDC in EUC-JP, 93FA 967B in
// Shift_JIS).

type kuten struct{ row, cell byte } // 1-based

// jisRare lists the curated kuten outside the kana rows: the most
// common row-1 punctuation and a few everyday kanji. Each kanji's byte
// values were validated against reference encodings (see package tests).
var jisRare = [...]struct {
	k kuten
	r rune
}{
	{kuten{1, 1}, '　'},   // ideographic space
	{kuten{1, 2}, '、'},   // U+3001 ideographic comma
	{kuten{1, 3}, '。'},   // U+3002 ideographic full stop
	{kuten{1, 6}, '・'},   // U+30FB katakana middle dot
	{kuten{1, 28}, 'ー'},  // U+30FC long vowel mark
	{kuten{38, 92}, '日'}, // JIS 467C, EUC C6FC, SJIS 93FA
	{kuten{43, 60}, '本'}, // JIS 4B5C, EUC CBDC, SJIS 967B
	{kuten{31, 45}, '人'}, // JIS 3F4D, EUC BFCD, SJIS 906C
	{kuten{24, 76}, '語'}, // JIS 386C, EUC B8EC, SJIS 8CEA
}

// kutenToRune returns the rune at a kuten coordinate, or 0 if the
// coordinate is outside the curated subset.
func kutenToRune(row, cell byte) rune {
	switch {
	case row == 4 && cell >= 1 && cell <= 83: // hiragana → U+3041..U+3093
		return rune(0x3040 + int(cell))
	case row == 5 && cell >= 1 && cell <= 86: // katakana → U+30A1..U+30F6
		return rune(0x30A0 + int(cell))
	}
	for _, e := range jisRare {
		if e.k == (kuten{row, cell}) {
			return e.r
		}
	}
	return 0
}

// jisKuten is the inverse of kutenToRune: the kana blocks by
// arithmetic, the rest from jisRare. The encoders call it per rune.
func jisKuten(r rune) (kuten, bool) {
	switch {
	case r >= 0x3041 && r <= 0x3093:
		return kuten{4, byte(r - 0x3040)}, true
	case r >= 0x30A1 && r <= 0x30F6:
		return kuten{5, byte(r - 0x30A0)}, true
	}
	for _, e := range jisRare {
		if e.r == r {
			return e.k, true
		}
	}
	return kuten{}, false
}

// MappedJapaneseRunes returns every rune in the curated JIS subset, in a
// deterministic order (by kuten). Text generators draw from this set.
func MappedJapaneseRunes() []rune {
	var out []rune
	for row := byte(1); row <= 94; row++ {
		for cell := byte(1); cell <= 94; cell++ {
			if r := kutenToRune(row, cell); r != 0 {
				out = append(out, r)
			}
		}
	}
	return out
}

// Half-width katakana: JIS X 0201 right half. Shift_JIS carries these as
// single bytes 0xA1..0xDF; EUC-JP as 0x8E followed by the same byte. The
// Unicode block U+FF61..U+FF9F maps to bytes 0xA1..0xDF in order.

func halfKanaByteToRune(b byte) rune {
	if b >= 0xA1 && b <= 0xDF {
		return rune(0xFF61 + int(b) - 0xA1)
	}
	return 0
}

func halfKanaRuneToByte(r rune) (byte, bool) {
	if r >= 0xFF61 && r <= 0xFF9F {
		return byte(0xA1 + int(r) - 0xFF61), true
	}
	return 0, false
}

// Thai: TIS-620 maps bytes 0xA1..0xFB to U+0E01..U+0E5B with two holes
// (0xDB..0xDE and 0xFC..0xFF are unassigned). ISO-8859-11 additionally
// assigns 0xA0 = NBSP; Windows-874 further assigns a few C1-region
// punctuation marks.

func thaiByteToRune(b byte) rune {
	switch {
	case b >= 0xA1 && b <= 0xDA, b >= 0xDF && b <= 0xFB:
		return rune(0x0E00 + int(b) - 0xA0)
	default:
		return 0
	}
}

func thaiRuneToByte(r rune) (byte, bool) {
	if r < 0x0E01 || r > 0x0E5B {
		return 0, false
	}
	off := int(r) - 0x0E00
	b := byte(0xA0 + off)
	if (b >= 0xDB && b <= 0xDE) || b >= 0xFC {
		return 0, false
	}
	return b, true
}

// win874Extra maps the Windows-874 extensions in the 0x80..0x9F range,
// indexed by byte-0x80; 0 marks an unassigned byte.
var win874Extra = [0x20]rune{
	0x80 - 0x80: '€',
	0x85 - 0x80: '…',
	0x91 - 0x80: '‘', // left single quote
	0x92 - 0x80: '’',
	0x93 - 0x80: '“',
	0x94 - 0x80: '”',
	0x95 - 0x80: '•',
	0x96 - 0x80: '–',
	0x97 - 0x80: '—',
}

var win874ExtraInv = func() map[rune]byte {
	m := make(map[rune]byte)
	for i, r := range win874Extra {
		if r != 0 {
			m[r] = byte(0x80 + i)
		}
	}
	return m
}()

// MappedThaiRunes returns every Thai rune representable in TIS-620, in
// codepoint order. Text generators draw from this set.
func MappedThaiRunes() []rune {
	var out []rune
	for b := 0xA1; b <= 0xFB; b++ {
		if r := thaiByteToRune(byte(b)); r != 0 {
			out = append(out, r)
		}
	}
	return out
}
