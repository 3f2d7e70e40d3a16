package charset

import "unicode/utf8"

// The three Japanese codecs share the JIS X 0208 kuten tables in
// tables.go and differ only in byte-level packing.

// eucJPCodec implements EUC-JP code sets 0 (ASCII), 1 (JIS X 0208 as two
// bytes 0xA1..0xFE each) and 2 (half-width katakana via the 0x8E prefix).
// Code set 3 (JIS X 0212 via 0x8F) decodes to replacement characters:
// the supplementary plane is outside the curated table and vanishingly
// rare in crawl content.
type eucJPCodec struct{}

func (eucJPCodec) Charset() Charset { return EUCJP }

func (c eucJPCodec) Encode(s string) []byte {
	return c.AppendEncode(make([]byte, 0, len(s)), s)
}

func (eucJPCodec) AppendEncode(dst []byte, s string) []byte {
	for _, r := range s {
		if r < 0x80 {
			dst = append(dst, byte(r))
			continue
		}
		if k, ok := jisKuten(r); ok {
			dst = append(dst, 0xA0+k.row, 0xA0+k.cell)
			continue
		}
		if b, ok := halfKanaRuneToByte(r); ok {
			dst = append(dst, 0x8E, b)
			continue
		}
		dst = append(dst, '?')
	}
	return dst
}

func (c eucJPCodec) Decode(b []byte) string {
	return string(c.AppendDecode(make([]byte, 0, len(b)), b))
}

func (eucJPCodec) AppendDecode(dst, b []byte) []byte {
	for i := 0; i < len(b); i++ {
		c := b[i]
		switch {
		case c < 0x80:
			dst = append(dst, c)
		case c == 0x8E:
			// Code set 2: one half-width katakana byte follows.
			if i+1 < len(b) {
				if r := halfKanaByteToRune(b[i+1]); r != 0 {
					dst = utf8.AppendRune(dst, r)
					i++
					continue
				}
			}
			dst = utf8.AppendRune(dst, replacement)
		case c == 0x8F:
			// Code set 3: skip the two trail bytes.
			dst = utf8.AppendRune(dst, replacement)
			for j := 0; j < 2 && i+1 < len(b) && b[i+1] >= 0xA1; j++ {
				i++
			}
		case c >= 0xA1 && c <= 0xFE && i+1 < len(b) && b[i+1] >= 0xA1 && b[i+1] <= 0xFE:
			r := kutenToRune(c-0xA0, b[i+1]-0xA0)
			if r == 0 {
				r = replacement
			}
			dst = utf8.AppendRune(dst, r)
			i++
		default:
			dst = utf8.AppendRune(dst, replacement)
		}
	}
	return dst
}

// jisToSjis folds JIS X 0208 bytes (both 0x21..0x7E) into Shift_JIS lead
// and trail bytes using the standard packing: two JIS rows share one
// Shift_JIS lead byte, and lead bytes skip the 0xA0..0xDF half-width
// katakana range.
func jisToSjis(h, l byte) (byte, byte) {
	var s1, s2 byte
	if h%2 == 1 { // odd row byte
		s1 = (h-0x21)/2 + 0x81
		if l <= 0x5F {
			s2 = l + 0x1F
		} else {
			s2 = l + 0x20
		}
	} else {
		s1 = (h-0x22)/2 + 0x81
		s2 = l + 0x7E
	}
	if s1 > 0x9F {
		s1 += 0x40
	}
	return s1, s2
}

// sjisToJis is the inverse of jisToSjis. ok is false when the byte pair
// is outside the valid double-byte ranges; every pair inside them is the
// image of a JIS X 0208 cell (TestSjisJisFoldInverse).
func sjisToJis(s1, s2 byte) (h, l byte, ok bool) {
	if !sjisLead(s1) || !sjisTrail(s2) {
		return 0, 0, false
	}
	switch {
	case s2 >= 0x9F:
		l = s2 - 0x7E
	case s2 >= 0x80:
		l = s2 - 0x20
	default:
		l = s2 - 0x1F
	}
	return sjisRow(s1, s2), l, true
}

// sjisRow returns the JIS X 0208 row byte of a valid Shift_JIS pair:
// the lead picks two rows, and a trail from 0x9F up the even one.
func sjisRow(s1, s2 byte) byte {
	if s1 >= 0xE0 {
		s1 -= 0x40
	}
	h := (s1-0x81)*2 + 0x21
	if s2 >= 0x9F {
		h++
	}
	return h
}

func sjisLead(b byte) bool {
	return (b >= 0x81 && b <= 0x9F) || (b >= 0xE0 && b <= 0xEF)
}

func sjisTrail(b byte) bool {
	return b >= 0x40 && b <= 0xFC && b != 0x7F
}

// shiftJISCodec implements Shift_JIS: ASCII, double-byte JIS X 0208, and
// single-byte half-width katakana (0xA1..0xDF).
type shiftJISCodec struct{}

func (shiftJISCodec) Charset() Charset { return ShiftJIS }

func (c shiftJISCodec) Encode(s string) []byte {
	return c.AppendEncode(make([]byte, 0, len(s)), s)
}

func (shiftJISCodec) AppendEncode(dst []byte, s string) []byte {
	for _, r := range s {
		if r < 0x80 {
			dst = append(dst, byte(r))
			continue
		}
		if k, ok := jisKuten(r); ok {
			s1, s2 := jisToSjis(0x20+k.row, 0x20+k.cell)
			dst = append(dst, s1, s2)
			continue
		}
		if b, ok := halfKanaRuneToByte(r); ok {
			dst = append(dst, b)
			continue
		}
		dst = append(dst, '?')
	}
	return dst
}

func (c shiftJISCodec) Decode(b []byte) string {
	return string(c.AppendDecode(make([]byte, 0, len(b)), b))
}

func (shiftJISCodec) AppendDecode(dst, b []byte) []byte {
	for i := 0; i < len(b); i++ {
		c := b[i]
		switch {
		case c < 0x80:
			dst = append(dst, c)
		case c >= 0xA1 && c <= 0xDF:
			dst = utf8.AppendRune(dst, halfKanaByteToRune(c))
		case sjisLead(c) && i+1 < len(b):
			h, l, ok := sjisToJis(c, b[i+1])
			if !ok {
				dst = utf8.AppendRune(dst, replacement)
				continue
			}
			r := kutenToRune(h-0x20, l-0x20)
			if r == 0 {
				r = replacement
			}
			dst = utf8.AppendRune(dst, r)
			i++
		default:
			dst = utf8.AppendRune(dst, replacement)
		}
	}
	return dst
}

// ISO-2022-JP escape sequences.
var (
	escASCII    = []byte{0x1B, '(', 'B'}
	escJISRoman = []byte{0x1B, '(', 'J'}
	escJISX0208 = []byte{0x1B, '$', 'B'}
	escJISC6226 = []byte{0x1B, '$', '@'} // older JIS C 6226-1978 designation
)

// iso2022JPCodec implements ISO-2022-JP: 7-bit text that switches between
// ASCII and JIS X 0208 modes via escape sequences. Encode always ends in
// ASCII mode, as the RFC 1468 profile requires of a complete text.
type iso2022JPCodec struct{}

func (iso2022JPCodec) Charset() Charset { return ISO2022JP }

func (c iso2022JPCodec) Encode(s string) []byte {
	return c.AppendEncode(make([]byte, 0, len(s)+8), s)
}

func (iso2022JPCodec) AppendEncode(dst []byte, s string) []byte {
	var sh Shift
	for _, r := range s {
		dst = sh.AppendRune(dst, iso2022JPRune(r))
	}
	return sh.AppendASCII(dst, "")
}

// iso2022JPRune is r's ISO-2022-JP encoding: ASCII as is, JIS X 0208 in
// the shifted mode, and '?' (in ASCII mode) for a rune with no mapping.
func iso2022JPRune(r rune) RuneCode {
	if r < 0x80 {
		return RuneCode{b: uint32(r), n: 1}
	}
	if k, ok := jisKuten(r); ok {
		return RuneCode{b: uint32(0x20+k.row) | uint32(0x20+k.cell)<<8, n: 2, jis: true}
	}
	return RuneCode{b: '?', n: 1}
}

func (c iso2022JPCodec) Decode(b []byte) string {
	return string(c.AppendDecode(make([]byte, 0, len(b)), b))
}

func (iso2022JPCodec) AppendDecode(dst, b []byte) []byte {
	inJIS := false
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c == 0x1B && i+2 < len(b) {
			switch {
			case b[i+1] == '(' && (b[i+2] == 'B' || b[i+2] == 'J'):
				inJIS = false
				i += 2
				continue
			case b[i+1] == '$' && (b[i+2] == 'B' || b[i+2] == '@'):
				inJIS = true
				i += 2
				continue
			}
		}
		if !inJIS {
			if c < 0x80 {
				dst = append(dst, c)
			} else {
				dst = utf8.AppendRune(dst, replacement)
			}
			continue
		}
		if c >= 0x21 && c <= 0x7E && i+1 < len(b) && b[i+1] >= 0x21 && b[i+1] <= 0x7E {
			r := kutenToRune(c-0x20, b[i+1]-0x20)
			if r == 0 {
				r = replacement
			}
			dst = utf8.AppendRune(dst, r)
			i++
			continue
		}
		if c == '\n' || c == '\r' {
			// Line breaks implicitly reset to ASCII in RFC 1468 text;
			// tolerate them inside a JIS section.
			inJIS = false
			dst = append(dst, c)
			continue
		}
		dst = utf8.AppendRune(dst, replacement)
	}
	return dst
}
