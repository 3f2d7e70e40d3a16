package charset

import (
	"bytes"
	"strings"
	"unicode/utf16"
)

// utf16Codec implements UTF-16 in both byte orders. Encode emits a BOM
// (the convention for standalone UTF-16 documents); Decode accepts input
// with or without one, trusting an explicit BOM over the configured
// order, as browsers do.
type utf16Codec struct {
	big bool
}

func (c utf16Codec) Charset() Charset {
	if c.big {
		return UTF16BE
	}
	return UTF16LE
}

func (c utf16Codec) Encode(s string) []byte {
	return c.AppendEncode(make([]byte, 0, 2+2*len(s)), s)
}

func (c utf16Codec) AppendEncode(dst []byte, s string) []byte {
	dst = c.appendUnit(dst, 0xFEFF) // BOM
	var units [2]uint16
	for _, r := range s {
		for _, u := range utf16.AppendRune(units[:0], r) {
			dst = c.appendUnit(dst, u)
		}
	}
	return dst
}

func (c utf16Codec) appendUnit(out []byte, u uint16) []byte {
	if c.big {
		return append(out, byte(u>>8), byte(u))
	}
	return append(out, byte(u), byte(u>>8))
}

func (c utf16Codec) Decode(b []byte) string {
	big := c.big
	if len(b) >= 2 {
		switch {
		case b[0] == 0xFE && b[1] == 0xFF:
			big, b = true, b[2:]
		case b[0] == 0xFF && b[1] == 0xFE:
			big, b = false, b[2:]
		}
	}
	units := make([]uint16, 0, len(b)/2)
	for i := 0; i+1 < len(b); i += 2 {
		if big {
			units = append(units, uint16(b[i])<<8|uint16(b[i+1]))
		} else {
			units = append(units, uint16(b[i+1])<<8|uint16(b[i]))
		}
	}
	var sb strings.Builder
	for _, r := range utf16.Decode(units) {
		if r == 0xFFFD {
			sb.WriteRune(replacement)
			continue
		}
		sb.WriteRune(r)
	}
	if len(b)%2 == 1 {
		sb.WriteRune(replacement) // dangling odd byte
	}
	return sb.String()
}

// bomProber identifies UTF-16 two ways: a byte-order mark is conclusive,
// and for BOM-less input the null-byte distribution decides — ASCII-range
// text encoded as UTF-16 puts a NUL in every other byte, on the high
// side for LE and the low side for BE, a pattern no other supported
// encoding produces (they never contain NULs in real text at all).
type bomProber struct {
	state   probeState
	offset  int // absolute stream offset across feeds
	nulEven int
	nulOdd  int
	hdr     [2]byte // first two stream bytes, buffered across feeds
}

// charset is the byte order the evidence points to: the BOM's once one
// is found, otherwise the side the NULs fall on.
func (p *bomProber) charset() Charset {
	if p.state == foundIt {
		if p.hdr[0] == 0xFE {
			return UTF16BE
		}
		return UTF16LE
	}
	if p.nulOdd > p.nulEven {
		return UTF16LE // text bytes at even offsets, NUL highs at odd
	}
	return UTF16BE
}

func (p *bomProber) feed(b []byte) probeState {
	// Only the very start of the stream can carry a BOM; buffer the
	// first two bytes so a BOM split across feeds is still caught.
	for p.offset < 2 && len(b) > 0 {
		p.hdr[p.offset] = b[0]
		p.offset++
		b = b[1:]
		if p.offset == 2 {
			if p.hdr == [2]byte{0xFE, 0xFF} || p.hdr == [2]byte{0xFF, 0xFE} {
				p.state = foundIt
				return p.state
			}
			// Not a BOM: account the buffered header as ordinary data.
			p.countNuls(p.hdr[:], 0)
		}
	}
	p.countNuls(b, p.offset)
	p.offset += len(b)
	return p.state
}

// countNuls tallies the NULs of b, which starts at stream offset off,
// by the parity of their offset.
func (p *bomProber) countNuls(b []byte, off int) {
	for {
		i := bytes.IndexByte(b, 0)
		if i < 0 {
			return
		}
		if (off+i)%2 == 0 {
			p.nulEven++
		} else {
			p.nulOdd++
		}
		off += i + 1
		b = b[i+1:]
	}
}

func (p *bomProber) confidence() float64 {
	if p.state == foundIt {
		return 1
	}
	if p.offset < 8 {
		return 0
	}
	nuls := p.nulEven + p.nulOdd
	if float64(nuls) < 0.25*float64(p.offset) {
		return 0
	}
	// Strong endianness skew in the NUL positions seals it.
	if float64(max(p.nulEven, p.nulOdd))/float64(nuls) < 0.8 {
		return 0
	}
	return 0.85
}
