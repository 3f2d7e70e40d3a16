package charset

// Rune-at-a-time encoding. A writer that produces text one rune at a
// time — the page generator — looks each rune's bytes up in a table
// built once with EncodeRune, and keeps in a Shift the only state an
// ASCII-compatible charset here has: ISO-2022-JP's switch between ASCII
// and JIS X 0208. Valid UTF-8 text written that way is byte-identical
// to Encode over the whole text. Invalid UTF-8 is not: the UTF-8 codec
// passes its bytes through, and no rune stands for them.

// RuneCode is one rune encoded in one charset.
type RuneCode struct {
	b   [4]byte
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
	rc.n = uint8(copy(rc.b[:], codec.Encode(string(r))))
	return rc, true
}

// Shift is the encoder state of text written rune by rune: whether an
// ISO-2022-JP stream is in JIS X 0208 mode. The zero value is the ASCII
// mode every text starts in; runes of the other charsets never shift it.
type Shift struct{ jis bool }

// AppendRune appends rc, preceded by the escape sequence that switches
// the stream's mode when rc is written in the other one.
func (s *Shift) AppendRune(dst []byte, rc RuneCode) []byte {
	if rc.jis != s.jis {
		if rc.jis {
			dst = append(dst, escJISX0208...)
		} else {
			dst = append(dst, escASCII...)
		}
		s.jis = rc.jis
	}
	return append(dst, rc.b[:rc.n]...)
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
