package charset

import "encoding/binary"

// Rune-at-a-time encoding. A writer that produces text one rune at a
// time — the page generator — looks each rune's bytes up in a table
// built once with EncodeRune, and keeps in a Shift the only state an
// ASCII-compatible charset here has: ISO-2022-JP's switch between ASCII
// and JIS X 0208. Valid UTF-8 text written that way is byte-identical
// to Encode over the whole text. Invalid UTF-8 is not: the UTF-8 codec
// passes its bytes through, and no rune stands for them.

// RuneCode is one rune encoded in one charset. Its bytes are packed in
// a word, the first in the low byte, so AppendRune writes them with one
// store rather than a copy.
type RuneCode struct {
	b   uint32
	n   uint8
	jis bool // b holds JIS X 0208 bytes, written in ISO-2022-JP's shifted mode
}

// EncodeRune returns r as c's encoder writes it inside a longer text. ok
// is false where c has no codec or is not ASCII-compatible (UTF-16):
// text in those is encoded whole, not rune by rune.
func EncodeRune(c Charset, r rune) (rc RuneCode, ok bool) {
	switch c {
	case ISO2022JP:
		return iso2022JPRune(r), true
	case UTF16LE, UTF16BE:
		return RuneCode{}, false
	}
	codec := CodecFor(c)
	if codec == nil {
		return RuneCode{}, false
	}
	// The other codecs are stateless: a rune's bytes do not depend on
	// its neighbours.
	return pack(codec.Encode(string(r))), true
}

// ASCIICode returns ASCII text of at most four bytes as one code, which
// AppendRune writes as AppendASCII writes the text. A writer keeps short
// ASCII units, such as syllables, in a table beside its runes.
func ASCIICode(text string) RuneCode {
	if len(text) > 4 {
		panic("charset: ASCIICode text longer than four bytes")
	}
	for i := 0; i < len(text); i++ {
		if text[i] >= 0x80 {
			panic("charset: ASCIICode text not ASCII")
		}
	}
	return pack([]byte(text))
}

// pack returns the (at most four) bytes b as an ASCII-mode RuneCode.
func pack(b []byte) RuneCode {
	var w [4]byte
	n := copy(w[:], b)
	return RuneCode{b: binary.LittleEndian.Uint32(w[:]), n: uint8(n)}
}

// Shift is the encoder state of text written rune by rune: whether an
// ISO-2022-JP stream is in JIS X 0208 mode. The zero value is the ASCII
// mode every text starts in; runes of the other charsets never shift it.
type Shift struct{ jis bool }

// AppendRune appends rc, preceded by the escape sequence that switches
// the stream's mode when rc is written in the other one. It writes all
// four bytes of rc's word and keeps rc.n of them, so it may overwrite up
// to three bytes of dst's capacity past the slice it returns.
func (s *Shift) AppendRune(dst []byte, rc RuneCode) []byte {
	if rc.jis != s.jis {
		if rc.jis {
			dst = append(dst, escJISX0208...)
		} else {
			dst = append(dst, escASCII...)
		}
		s.jis = rc.jis
	}
	dst = binary.LittleEndian.AppendUint32(dst, rc.b)
	return dst[:len(dst)-4+int(rc.n)]
}

// AppendASCII appends ASCII text, returning the stream to ASCII mode
// first. With an empty text it ends the stream, which must end in ASCII
// mode.
func (s *Shift) AppendASCII(dst []byte, text string) []byte {
	if s.jis {
		dst = append(dst, escASCII...)
		s.jis = false
	}
	return append(dst, text...)
}
