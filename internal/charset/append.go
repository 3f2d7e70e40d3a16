package charset

import (
	"bytes"
	"unsafe"
)

// Append-style codec entry points. The streaming parse pipeline and the
// page generator work in caller-owned reusable buffers; these helpers
// let them encode/decode without the per-page allocation that
// Codec.Encode/Decode's fresh return values imply. Codecs that implement
// the optional interfaces run allocation-free (given capacity); the rest
// fall back to the string forms transparently.

// AppendEncoder is implemented by codecs that can encode into a
// caller-supplied buffer.
type AppendEncoder interface {
	AppendEncode(dst []byte, s string) []byte
}

// AppendDecoder is implemented by codecs that can decode (to UTF-8
// bytes) into a caller-supplied buffer.
type AppendDecoder interface {
	AppendDecode(dst, b []byte) []byte
}

// AppendEncode appends the c-encoded form of s to dst. It is
// byte-identical to append(dst, c.Encode(s)...).
func AppendEncode(c Codec, dst []byte, s string) []byte {
	if ae, ok := c.(AppendEncoder); ok {
		return ae.AppendEncode(dst, s)
	}
	return append(dst, c.Encode(s)...)
}

// AppendEncodeBytes is AppendEncode for text held in a byte slice — the
// page generator's scratch buffer — read in place instead of through a
// string copy of every page. Codecs only read s during the call and keep
// no reference to it, which is what makes the unsafe view sound; src
// must not be written while the call runs and must not overlap dst's
// spare capacity.
func AppendEncodeBytes(c Codec, dst, src []byte) []byte {
	return AppendEncode(c, dst, unsafe.String(unsafe.SliceData(src), len(src)))
}

// AppendDecode appends the UTF-8 decoding of b to dst. It is
// byte-identical to append(dst, c.Decode(b)...).
func AppendDecode(c Codec, dst, b []byte) []byte {
	if ad, ok := c.(AppendDecoder); ok {
		return ad.AppendDecode(dst, b)
	}
	return append(dst, c.Decode(b)...)
}

// ParseBytes is Parse for raw declaration bytes, allocation-free for the
// ASCII names that actually occur. Input containing bytes ≥ 0x80 falls
// back to Parse so strings.ToLower's non-ASCII case mappings keep their
// (null) effect on the alias table. The alias switch is a duplicate of
// Parse's — a `switch string(b)` compiles without allocating only when
// the conversion sits in the switch head — and TestParseBytesMatchesParse
// pins the two tables together.
func ParseBytes(name []byte) Charset {
	for _, c := range name {
		if c >= 0x80 {
			return Parse(string(name))
		}
	}
	n := bytes.TrimSpace(name)
	n = bytes.Trim(n, `"'`)
	// Longest alias is "iso-8859-11:2001" (16 bytes); anything longer
	// cannot match.
	var buf [32]byte
	if len(n) > len(buf) {
		return Unknown
	}
	for i := 0; i < len(n); i++ {
		c := n[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf[i] = c
	}
	switch string(buf[:len(n)]) {
	case "us-ascii", "ascii", "ansi_x3.4-1968", "iso646-us":
		return ASCII
	case "utf-8", "utf8":
		return UTF8
	case "iso-8859-1", "iso8859-1", "latin1", "latin-1", "l1", "cp819", "windows-1252", "cp1252":
		return Latin1
	case "euc-jp", "eucjp", "x-euc-jp", "ujis":
		return EUCJP
	case "shift_jis", "shift-jis", "shiftjis", "sjis", "x-sjis", "ms_kanji", "cp932", "windows-31j":
		return ShiftJIS
	case "iso-2022-jp", "iso2022jp", "csiso2022jp", "jis":
		return ISO2022JP
	case "tis-620", "tis620", "tis-62", "iso-ir-166":
		return TIS620
	case "windows-874", "cp874", "x-windows-874", "ms874":
		return Windows874
	case "iso-8859-11", "iso8859-11", "iso-8859-11:2001":
		return ISO885911
	case "utf-16le", "utf16le", "utf-16", "utf16", "unicode":
		return UTF16LE
	case "utf-16be", "utf16be", "unicodefffe":
		return UTF16BE
	default:
		return Unknown
	}
}
