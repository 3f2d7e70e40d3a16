package charset

import (
	"bytes"
	"encoding/binary"
)

// Probers in the style of the Mozilla Universal Charset Detector
// (Li & Momoi, "A composite approach to language/encoding detection").
// Only the probers that depend on byte order are state machines: the
// escape, BOM (utf16.go), UTF-8, EUC-JP and Shift_JIS probers. Each
// skips what it cannot act on — the escape and BOM probers jump to the
// next ESC or NUL, the multibyte probers skip ASCII a word at a time.
// The EUC-JP and Shift_JIS probers step a whole double-byte pair per
// turn, reading the trail right after its lead (only a pair split
// between feeds carries its lead over), and weigh it with one load from
// a table built once from jisRowWeight (eucWeight, sjisWeight).
// The Thai, ASCII and Latin-1 probers only count bytes, so their
// verdicts are all read off one byteStats pass. Every prober reports a
// confidence in [0,1]; the composite detector (detect.go) picks the
// confident winner.

type probeState uint8

const (
	probing probeState = iota // still collecting evidence
	foundIt                   // positive identification (e.g. escape seq)
	notMe                     // input is invalid for this charset
)

// asciiWords returns how many leading bytes of b lie in whole 8-byte
// words that are pure ASCII: the multibyte probers skip those, since
// ASCII neither advances nor breaks them between characters.
func asciiWords(b []byte) int {
	n := 0
	for len(b)-n >= 8 && binary.LittleEndian.Uint64(b[n:])&0x8080808080808080 == 0 {
		n += 8
	}
	return n
}

// --- escape-sequence prober (ISO-2022-JP) ---------------------------------

// escProber looks for the ISO-2022-JP designation escapes. Any ESC $ B,
// ESC $ @ or ESC ( J is conclusive: no other encoding in scope uses them.
// The match runs as a per-byte state machine from each ESC, so a
// designation split across feed boundaries is still caught.
type escProber struct {
	state  probeState
	seq    uint8 // 0 = none, 1 = after ESC, 2 = after ESC $, 3 = after ESC (
	sawESC bool  // any ESC seen: the stream is not pure ASCII
}

func (p *escProber) feed(b []byte) probeState {
	for p.state == probing && len(b) > 0 {
		if p.seq == 0 {
			i := bytes.IndexByte(b, 0x1B)
			if i < 0 {
				break
			}
			p.seq, p.sawESC, b = 1, true, b[i+1:]
			continue
		}
		c := b[0]
		b = b[1:]
		switch {
		case p.seq == 2 && (c == 'B' || c == '@'), p.seq == 3 && c == 'J':
			p.state = foundIt
		case p.seq == 1 && c == '$':
			p.seq = 2
		case p.seq == 1 && c == '(':
			p.seq = 3
		case c == 0x1B:
			p.seq = 1
		default:
			p.seq = 0
		}
	}
	return p.state
}

func (p *escProber) confidence() float64 {
	if p.state == foundIt {
		return 0.99
	}
	return 0
}

// --- UTF-8 coding scheme prober -------------------------------------------

type utf8Prober struct {
	state   probeState
	multi   int // count of valid multibyte sequences seen
	pending int // continuation bytes still expected
}

func (p *utf8Prober) feed(b []byte) {
	for i := 0; i < len(b) && p.state == probing; i++ {
		c := b[i]
		switch {
		case p.pending > 0:
			if c&0xC0 != 0x80 {
				p.state = notMe
				return
			}
			p.pending--
			if p.pending == 0 {
				p.multi++
			}
		case c < 0x80:
			i += asciiWords(b[i+1:])
		case c&0xE0 == 0xC0:
			if c == 0xC0 || c == 0xC1 { // overlong lead bytes
				p.state = notMe
				return
			}
			p.pending = 1
		case c&0xF0 == 0xE0:
			p.pending = 2
		case c&0xF8 == 0xF0 && c <= 0xF4:
			p.pending = 3
		default:
			p.state = notMe
		}
	}
}

func (p *utf8Prober) confidence() float64 {
	if p.state == notMe {
		return 0
	}
	if p.multi == 0 {
		return 0 // pure ASCII: let the ASCII fallback claim it
	}
	// Confidence grows quickly with the number of valid multibyte
	// sequences: random legacy-encoded text invalidates UTF-8 almost
	// immediately, so surviving even a few sequences is strong evidence.
	c := 1.0 - 1.0/float64(1+p.multi)
	if c > 0.99 {
		c = 0.99
	}
	return 0.5 + 0.49*c
}

// --- Japanese multibyte probers -------------------------------------------

// jisRowWeight classifies a decoded JIS character by its kuten row into
// a frequency class: how typical it is of running Japanese text.
// Hiragana dominates real Japanese; katakana and level-1 kanji are
// common; anything else is rare.
func jisRowWeight(row byte) float64 {
	switch {
	case row == 4: // hiragana
		return 1.0
	case row == 5: // katakana
		return 0.7
	case row == 1: // punctuation
		return 0.6
	case row >= 16 && row <= 47: // JIS level-1 kanji
		return 0.5
	default:
		return 0.05
	}
}

// eucWeight is the weight of an EUC-JP pair by its lead byte, the row
// byte plus 0xA0: jisRowWeight of the row for 0xA1..0xFE, and for the
// code set 2 lead 0x8E the weight its wrapped row 0x8E−0xA0 gets. Every
// weight is positive, so a zero entry is exactly a byte ≥ 0x80 that
// cannot lead a pair.
var eucWeight = func() (t [256]float64) {
	for c := 0x8E; c <= 0xFE; c++ {
		if c == 0x8E || eucTrail(byte(c)) {
			t[c] = jisRowWeight(byte(c) - 0xA0)
		}
	}
	return t
}()

// sjisWeight is the weight of a Shift_JIS pair, indexed by whether the
// trail is ≥ 0x9F (which picks the even of the lead's two rows, see
// sjisRow) and by the lead byte. Zero exactly off the lead bytes.
var sjisWeight = func() (t [2][256]float64) {
	for c := 0; c < 256; c++ {
		if sjisLead(byte(c)) {
			t[0][c] = jisRowWeight(sjisRow(byte(c), 0x40) - 0x20)
			t[1][c] = jisRowWeight(sjisRow(byte(c), 0x9F) - 0x20)
		}
	}
	return t
}()

// eucTrail reports whether c can end an EUC-JP pair.
func eucTrail(c byte) bool { return c >= 0xA1 && c <= 0xFE }

// eucJPProber validates EUC-JP byte structure and scores the character
// distribution of the decoded stream.
type eucJPProber struct {
	state  probeState
	chars  int     // double-byte chars seen
	weight float64 // accumulated row weights
	lead   byte    // lead byte of a pair split by the feed (0 = none)
}

func (p *eucJPProber) feed(b []byte) {
	if p.state != probing || len(b) == 0 {
		return
	}
	// The loop keeps the prober's fields in locals and makes no call, so
	// they stay in registers; it stores them back once. weight adds the
	// same terms in the same order as a byte-at-a-time walk.
	state, lead, chars, weight := p.state, p.lead, p.chars, p.weight
	i := 0
	if lead != 0 { // finish the pair the last feed split
		if !eucTrail(b[0]) {
			p.state = notMe
			return
		}
		chars++
		weight += eucWeight[lead]
		lead, i = 0, 1
	}
	for ; i < len(b); i++ {
		c := b[i]
		if c < 0x80 {
			i += asciiWords(b[i+1:])
			continue
		}
		w := eucWeight[c]
		if w == 0 {
			state = notMe
			break
		}
		if i+1 == len(b) {
			lead = c
			break
		}
		i++
		if !eucTrail(b[i]) {
			state = notMe
			break
		}
		chars++
		weight += w
	}
	p.state, p.lead, p.chars, p.weight = state, lead, chars, weight
}

func (p *eucJPProber) confidence() float64 {
	if p.state == notMe || p.chars == 0 {
		return 0
	}
	if p.lead != 0 {
		// Stream ended mid-character: odd-length high-byte run. Real
		// EUC-JP never does this; penalize hard (this is also what
		// separates EUC-JP from Thai single-byte text).
		return 0
	}
	avg := p.weight / float64(p.chars)
	// avg is ~0.7+ for real Japanese, ~0.05-0.3 for random pairs.
	conf := avg
	if conf > 0.99 {
		conf = 0.99
	}
	return conf
}

// sjisProber validates Shift_JIS byte structure and scores distribution.
type sjisProber struct {
	state  probeState
	chars  int
	dbl    int // double-byte (JIS X 0208) characters seen
	weight float64
	lead   byte
}

func (p *sjisProber) feed(b []byte) {
	if p.state != probing || len(b) == 0 {
		return
	}
	// On locals, as eucJPProber.feed. A lead is only ever a valid one,
	// so the pair is valid exactly when the trail is (sjisToJis).
	state, lead, chars, dbl, weight := p.state, p.lead, p.chars, p.dbl, p.weight
	i := 0
	if lead != 0 { // finish the pair the last feed split
		if !sjisTrail(b[0]) {
			p.state = notMe
			return
		}
		chars++
		dbl++
		weight += sjisWeight[sjisEven(b[0])][lead]
		lead, i = 0, 1
	}
loop:
	for ; i < len(b); i++ {
		c := b[i]
		switch {
		case c < 0x80:
			i += asciiWords(b[i+1:])
		case c >= 0xA1 && c <= 0xDF:
			// Half-width katakana: weak Japanese evidence, but also the
			// core Thai byte range. Count as a low-weight character.
			chars++
			weight += 0.3
		case sjisWeight[0][c] == 0:
			state = notMe
			break loop
		case i+1 == len(b):
			lead = c
		default:
			i++
			t := b[i]
			if !sjisTrail(t) {
				state = notMe
				break loop
			}
			chars++
			dbl++
			weight += sjisWeight[sjisEven(t)][c]
		}
	}
	p.state, p.lead, p.chars, p.dbl, p.weight = state, lead, chars, dbl, weight
}

// sjisEven is sjisWeight's first index for trail byte t: 1 when t is
// ≥ 0x9F, which puts the pair on its lead's even row.
func sjisEven(t byte) int { return (int(t) + 0x100 - 0x9F) >> 8 }

func (p *sjisProber) confidence() float64 {
	if p.state == notMe || p.chars == 0 {
		return 0
	}
	if p.lead != 0 {
		return 0
	}
	avg := p.weight / float64(p.chars)
	if p.dbl == 0 && avg > 0.15 {
		// Only half-width katakana bytes: structurally valid, but that
		// byte range is shared with the Thai encodings and pure
		// half-kana pages are vanishingly rare — keep the claim weak so
		// genuine Thai evidence outranks it.
		avg = 0.15
	}
	if avg > 0.99 {
		avg = 0.99
	}
	return avg
}

// --- byte statistics: the Thai, ASCII and Latin-1 probers -----------------

// thaiFrequent marks the TIS-620 bytes of the most frequent Thai
// characters (า น ร อ เ แ ก ง ม ย ว ส ด ท ต ค บ ล and the common vowel /
// tone marks ั ี ่ ้). In running Thai text these cover well over half of
// all Thai characters; in non-Thai high-byte streams they appear at
// roughly their range share (~25%).
var thaiFrequent = [256]bool{
	0xA1: true, // ก
	0xA4: true, // ค
	0xA7: true, // ง
	0xB4: true, // ด
	0xB5: true, // ต
	0xB7: true, // ท
	0xB9: true, // น
	0xBA: true, // บ
	0xC1: true, // ม
	0xC2: true, // ย
	0xC3: true, // ร
	0xC5: true, // ล
	0xC7: true, // ว
	0xCA: true, // ส
	0xCD: true, // อ
	0xD1: true, // ั
	0xD2: true, // า
	0xD5: true, // ี
	0xE0: true, // เ
	0xE1: true, // แ
	0xE8: true, // ่
	0xE9: true, // ้
}

// The byte classes counted by byteStats. The three Thai charsets differ
// only in which of NBSP and the windows-874 punctuation they accept, so
// all three verdicts come from one set of counts.
const (
	statLetter      = iota // ASCII letter
	statThai               // byte in the TIS-620 Thai block
	statFrequent           // frequent Thai character (also a statThai)
	statNBSP               // 0xA0: NBSP in ISO-8859-11 and windows-874
	statPunct874           // windows-874 punctuation in 0x80..0x9F
	statOtherHigh          // any other byte >= 0x80
	statLatinLetter        // 0xC0..0xFF: accented letters in Latin-1
	numStats

	// Each byte adds its statInc entry to a packed accumulator of
	// statBits-wide fields, one per class, which is unpacked once per
	// block of statBlock bytes — few enough that no field can overflow.
	statBits  = 9
	statBlock = 1<<statBits - 1
)

var statInc = func() (t [256]uint64) {
	for i := range t {
		c := byte(i)
		add := func(class int) { t[i] += 1 << (class * statBits) }
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
			add(statLetter)
		case c < 0x80:
		case thaiByteToRune(c) != 0:
			add(statThai)
			if thaiFrequent[c] {
				add(statFrequent)
			}
		case c == 0xA0:
			add(statNBSP)
		case c < 0xA0 && win874Extra[c-0x80] != 0:
			add(statPunct874)
		default:
			add(statOtherHigh)
		}
		if c >= 0xC0 {
			add(statLatinLetter)
		}
	}
	return t
}()

// byteStats counts the byte classes of everything fed so far.
type byteStats struct {
	n [numStats]int
}

func (s *byteStats) feed(b []byte) {
	for len(b) > 0 {
		blk := b[:min(len(b), statBlock)]
		b = b[len(blk):]
		var acc uint64
		for _, c := range blk {
			acc += statInc[c]
		}
		for class := range s.n {
			s.n[class] += int(acc >> (class * statBits) & statBlock)
		}
	}
}

func (s *byteStats) high() int {
	return s.n[statThai] + s.n[statNBSP] + s.n[statPunct874] + s.n[statOtherHigh]
}

// thaiConfidence scores a Thai single-byte charset for which invalid of
// the high bytes seen are unassigned.
func (s *byteStats) thaiConfidence(invalid int) float64 {
	thai := s.n[statThai]
	if thai == 0 {
		return 0
	}
	if invalid > 0 {
		// A handful of stray bytes is tolerable in wild data, but any
		// substantial amount rules the charset out.
		if float64(invalid)/float64(thai+invalid) > 0.02 {
			return 0
		}
	}
	freqRatio := float64(s.n[statFrequent]) / float64(thai)
	// Real Thai: freqRatio ≳ 0.5. Japanese EUC bytes landing in the Thai
	// range hit the frequent set at roughly its density (~22/91 ≈ 0.24).
	conf := freqRatio * 1.4
	// Density check separates Thai from western text with a sprinkling of
	// accented letters (é è à all collide with frequent Thai bytes): real
	// Thai is mostly Thai bytes, so a low Thai-to-letter density caps the
	// confidence below the Latin-1 fallback.
	density := float64(thai) / float64(thai+s.n[statLetter])
	if f := (density / 0.4) * (density / 0.4); f < 1 {
		conf *= f
	}
	if conf > 0.99 {
		conf = 0.99
	}
	return conf
}

// asciiConfidence claims pure 7-bit ESC-free input, beaten by anything
// with positive evidence.
func (s *byteStats) asciiConfidence(sawESC bool) float64 {
	if sawESC || s.high() > 0 {
		return 0
	}
	return 0.6
}

// latin1Confidence is the last-resort fallback for 8-bit western text:
// it accepts anything and scores by how "letter-like" the high bytes are
// in Latin-1 (accented letters live in 0xC0..0xFF). It is never
// confident: Latin-1 only wins when everything else bowed out.
func (s *byteStats) latin1Confidence() float64 {
	high := s.high()
	if high == 0 {
		return 0
	}
	r := float64(s.n[statLatinLetter]) / float64(high)
	return 0.05 + 0.25*r
}
