package charset

import "unicode/utf8"

// asciiCodec implements US-ASCII: bytes 0x00..0x7F map to themselves.
type asciiCodec struct{}

func (asciiCodec) Charset() Charset { return ASCII }

func (c asciiCodec) Encode(s string) []byte {
	return c.AppendEncode(make([]byte, 0, len(s)), s)
}

func (asciiCodec) AppendEncode(dst []byte, s string) []byte {
	for _, r := range s {
		if r < 0x80 {
			dst = append(dst, byte(r))
		} else {
			dst = append(dst, '?')
		}
	}
	return dst
}

func (c asciiCodec) Decode(b []byte) string {
	return string(c.AppendDecode(make([]byte, 0, len(b)), b))
}

func (asciiCodec) AppendDecode(dst, b []byte) []byte {
	for _, c := range b {
		if c < 0x80 {
			dst = append(dst, c)
		} else {
			dst = utf8.AppendRune(dst, replacement)
		}
	}
	return dst
}

// utf8Codec implements UTF-8 via the stdlib, with replacement-character
// substitution on decode.
type utf8Codec struct{}

func (utf8Codec) Charset() Charset { return UTF8 }

func (utf8Codec) Encode(s string) []byte { return []byte(s) }

func (utf8Codec) AppendEncode(dst []byte, s string) []byte { return append(dst, s...) }

func (c utf8Codec) Decode(b []byte) string {
	if utf8.Valid(b) {
		return string(b)
	}
	return string(c.AppendDecode(make([]byte, 0, len(b)), b))
}

func (utf8Codec) AppendDecode(dst, b []byte) []byte {
	if utf8.Valid(b) {
		return append(dst, b...)
	}
	for len(b) > 0 {
		r, size := utf8.DecodeRune(b)
		if r == utf8.RuneError && size <= 1 {
			dst = utf8.AppendRune(dst, replacement)
			b = b[1:]
			continue
		}
		dst = utf8.AppendRune(dst, r)
		b = b[size:]
	}
	return dst
}

// latin1Codec implements ISO-8859-1: bytes 0x00..0xFF map to U+0000..U+00FF.
type latin1Codec struct{}

func (latin1Codec) Charset() Charset { return Latin1 }

func (c latin1Codec) Encode(s string) []byte {
	return c.AppendEncode(make([]byte, 0, len(s)), s)
}

func (latin1Codec) AppendEncode(dst []byte, s string) []byte {
	for _, r := range s {
		if r < 0x100 {
			dst = append(dst, byte(r))
		} else {
			dst = append(dst, '?')
		}
	}
	return dst
}

func (c latin1Codec) Decode(b []byte) string {
	return string(c.AppendDecode(make([]byte, 0, len(b)), b))
}

func (latin1Codec) AppendDecode(dst, b []byte) []byte {
	for _, c := range b {
		dst = utf8.AppendRune(dst, rune(c))
	}
	return dst
}

// thaiCodec implements the three Thai single-byte encodings, which share
// the TIS-620 core layout. cs selects the variant:
//
//	TIS620:     0xA1..0xFB Thai block only
//	ISO885911:  TIS-620 plus 0xA0 = NBSP
//	Windows874: ISO-8859-11 plus C1-region punctuation (…, quotes, dashes)
type thaiCodec struct{ cs Charset }

func (t thaiCodec) Charset() Charset { return t.cs }

func (t thaiCodec) Encode(s string) []byte {
	return t.AppendEncode(make([]byte, 0, len(s)), s)
}

func (t thaiCodec) AppendEncode(dst []byte, s string) []byte {
	for _, r := range s {
		switch {
		case r < 0x80:
			dst = append(dst, byte(r))
		case r == 0x00A0 && t.cs != TIS620:
			dst = append(dst, 0xA0)
		default:
			if b, ok := thaiRuneToByte(r); ok {
				dst = append(dst, b)
				continue
			}
			if t.cs == Windows874 {
				if b, ok := win874ExtraInv[r]; ok {
					dst = append(dst, b)
					continue
				}
			}
			dst = append(dst, '?')
		}
	}
	return dst
}

func (t thaiCodec) Decode(b []byte) string {
	return string(t.AppendDecode(make([]byte, 0, len(b)), b))
}

func (t thaiCodec) AppendDecode(dst, b []byte) []byte {
	for _, c := range b {
		switch {
		case c < 0x80:
			dst = append(dst, c)
		case c == 0xA0 && t.cs != TIS620:
			dst = utf8.AppendRune(dst, 0x00A0)
		default:
			if r := thaiByteToRune(c); r != 0 {
				dst = utf8.AppendRune(dst, r)
				continue
			}
			if t.cs == Windows874 && c < 0xA0 && win874Extra[c-0x80] != 0 {
				dst = utf8.AppendRune(dst, win874Extra[c-0x80])
				continue
			}
			dst = utf8.AppendRune(dst, replacement)
		}
	}
	return dst
}
