// Package textgen synthesizes natural-language-like text and full HTML
// pages in Japanese, Thai and English. The simulator never stores page
// bodies: when a detector-based classifier needs bytes, the page is
// regenerated deterministically from (spaceSeed, pageID) — so every
// generator here is a pure function of its RNG stream.
//
// The character-frequency models are deliberately aligned with reality
// (hiragana dominates Japanese text; the Thai model favours the same
// frequent characters real Thai does) so the charset detector sees input
// with realistic distribution properties.
package textgen

import (
	"langcrawl/internal/charset"
	"langcrawl/internal/rng"
)

// Lang re-exports charset.Language for generator selection.
type Lang = charset.Language

// frequency-weighted character inventories -------------------------------

// glyph is one inventory character and its relative frequency. No
// inventory holds '&', '<', '>' or '"', so generated text goes into
// markup unescaped (TestInventoriesHoldNoMarkup).
type glyph struct {
	r rune
	w float64
}

// hiraganaCommon lists frequent hiragana with weights approximating
// running-text frequency (い の ん し か … dominate real Japanese).
var hiraganaCommon = []glyph{
	{'い', 9}, {'の', 9}, {'ん', 8}, {'し', 7}, {'か', 7}, {'た', 7},
	{'と', 6}, {'て', 6}, {'に', 6}, {'な', 6}, {'は', 5}, {'を', 5},
	{'る', 5}, {'す', 5}, {'が', 5}, {'で', 5}, {'ま', 4}, {'き', 4},
	{'こ', 4}, {'う', 4}, {'く', 4}, {'れ', 3}, {'そ', 3}, {'も', 3},
	{'ら', 3}, {'り', 3}, {'さ', 3}, {'あ', 2}, {'お', 2}, {'え', 2},
	{'つ', 2}, {'け', 2}, {'せ', 2}, {'や', 2}, {'よ', 2}, {'わ', 2},
	{'ひ', 1}, {'ふ', 1}, {'へ', 1}, {'ほ', 1}, {'み', 1}, {'む', 1},
	{'め', 1}, {'ち', 1}, {'ぬ', 1}, {'ね', 1},
}

var katakanaCommon = []glyph{
	{'ア', 4}, {'イ', 4}, {'ン', 6}, {'ス', 4}, {'ト', 4}, {'ル', 4},
	{'ラ', 3}, {'リ', 3}, {'ク', 3}, {'タ', 3}, {'シ', 3}, {'カ', 2},
	{'コ', 2}, {'サ', 2}, {'テ', 2}, {'ニ', 2}, {'マ', 2}, {'ミ', 1},
	{'メ', 2}, {'モ', 1}, {'ヤ', 1}, {'ユ', 1}, {'ヨ', 1}, {'ロ', 2},
	{'ワ', 1}, {'エ', 1}, {'オ', 1}, {'ウ', 1}, {'ナ', 1}, {'ネ', 1},
	{'ー', 5},
}

// kanjiCommon is the curated externally-validated kanji subset.
var kanjiCommon = []glyph{
	{'日', 5}, {'本', 4}, {'人', 4}, {'語', 3},
}

// thaiCommon lists frequent Thai characters with realistic weights; the
// set intentionally overlaps the detector's frequent-character table the
// way real Thai running text does.
var thaiCommon = []glyph{
	{'า', 9}, {'น', 8}, {'ร', 8}, {'อ', 7}, {'เ', 7}, {'ก', 6},
	{'ง', 6}, {'ม', 6}, {'ย', 5}, {'ว', 5}, {'ส', 5}, {'ด', 5},
	{'ท', 5}, {'ต', 4}, {'ค', 4}, {'บ', 4}, {'ล', 4}, {'แ', 4},
	{'ี', 6}, {'ั', 6}, {'่', 6}, {'้', 5}, {'ิ', 4}, {'ะ', 3},
	{'ุ', 3}, {'ู', 2}, {'ำ', 2}, {'ไ', 3}, {'ใ', 2}, {'โ', 2},
	{'ห', 3}, {'จ', 3}, {'ช', 2}, {'ข', 2}, {'พ', 3}, {'ป', 3},
	{'ผ', 1}, {'ถ', 1}, {'ภ', 1}, {'ษ', 1}, {'ศ', 2}, {'ซ', 1},
	{'ฟ', 1}, {'ๆ', 1}, {'ญ', 1}, {'ณ', 1}, {'ธ', 1}, {'ฐ', 1},
}

// englishSyllables builds pronounceable pseudo-English.
var englishSyllables = []string{
	"the", "re", "in", "on", "at", "er", "an", "ti", "es", "or",
	"to", "con", "ver", "com", "per", "ment", "tion", "al", "ing", "ly",
	"pro", "sta", "net", "web", "data", "arch", "ive", "page", "link", "site",
}

// The samplers over the inventories, built once: a table is a pure
// function of its inventory. The syllables are ASCII, the same in every
// charset, and each fits one code.
var (
	hiragana  = newInventory(hiraganaCommon)
	katakana  = newInventory(katakanaCommon)
	kanji     = newInventory(kanjiCommon)
	thai      = newInventory(thaiCommon)
	engSyl    = rng.NewWeighted(syllableWeights())
	syllables = syllableCodes()
)

// inventory pairs a glyph table with its CDF-inversion sampler. The
// sampler stays a CDF inversion, one uniform per glyph: an alias table
// would draw differently, and the draw order is part of the page format.
type inventory struct {
	glyphs []glyph
	cdf    *rng.Weighted
}

func newInventory(tab []glyph) inventory {
	w := make([]float64, len(tab))
	for i, e := range tab {
		w[i] = e.w
	}
	return inventory{glyphs: tab, cdf: rng.NewWeighted(w)}
}

// appendN appends n glyphs sampled from cdf with r, taking their bytes
// from codes (the glyphs in the charset being written). It draws on
// local copies of the stream and the shift state, which the writes to
// dst cannot alias, and stores both back after the loop.
func appendN(dst []byte, r *rng.RNG, n int, cdf *rng.Weighted, codes []charset.RuneCode, sh *charset.Shift) []byte {
	s, shift := *r, *sh
	for ; n > 0; n-- {
		dst = shift.AppendRune(dst, codes[cdf.Pick(s.Uint64())])
	}
	*r, *sh = s, shift
	return dst
}

// encoding is every glyph the generator writes, encoded in one charset,
// plus that charset's codec for the bytes no table holds (a non-ASCII
// href). ASCII — markup, English syllables, spaces — is the same in
// every charset an encoding exists for.
type encoding struct {
	hiragana, katakana, kanji, thai []charset.RuneCode
	comma, stop                     charset.RuneCode // 、 and 。
	codec                           charset.Codec
}

// encodings[c] is the encoding a page in charset c is written in, built
// once from the charset codecs: nil for UTF-16, which is not written
// rune by rune, and UTF-8 for Unknown, which has no codec.
var encodings = func() []*encoding {
	all := charset.All()
	encs := make([]*encoding, len(all)+1)
	for _, c := range all {
		if _, ok := charset.EncodeRune(c, 'a'); ok {
			encs[c] = newEncoding(c)
		}
	}
	encs[charset.Unknown] = encs[charset.UTF8]
	return encs
}()

// utf8Enc is the encoding of the string methods, of a page whose
// charset has no codec and of the UTF-8 form a UTF-16 page is widened
// from.
var utf8Enc = encodings[charset.UTF8]

func newEncoding(c charset.Charset) *encoding {
	enc := func(r rune) charset.RuneCode {
		rc, _ := charset.EncodeRune(c, r)
		return rc
	}
	glyphs := func(inv inventory) []charset.RuneCode {
		codes := make([]charset.RuneCode, len(inv.glyphs))
		for i, g := range inv.glyphs {
			codes[i] = enc(g.r)
		}
		return codes
	}
	return &encoding{
		hiragana: glyphs(hiragana),
		katakana: glyphs(katakana),
		kanji:    glyphs(kanji),
		thai:     glyphs(thai),
		comma:    enc('、'),
		stop:     enc('。'),
		codec:    charset.CodecFor(c),
	}
}

func syllableCodes() []charset.RuneCode {
	codes := make([]charset.RuneCode, len(englishSyllables))
	for i, syl := range englishSyllables {
		codes[i] = charset.ASCIICode(syl)
	}
	return codes
}

func syllableWeights() []float64 {
	w := make([]float64, len(englishSyllables))
	for i := range w {
		w[i] = 1 + 3/float64(i+1)
	}
	return w
}

// Generator produces text in one language from a deterministic stream.
// The string methods return UTF-8; a page is written in its charset
// directly. The sequence of draws from the stream is fixed — pages are
// regenerated from seeds, never stored — so a change to it is a change
// to every recorded crawl. It is not safe for concurrent use; create one
// per goroutine.
type Generator struct {
	lang Lang
	r    *rng.RNG
	enc  *encoding
	sh   charset.Shift
}

// New returns a Generator for lang drawing randomness from r.
func New(lang Lang, r *rng.RNG) *Generator {
	return &Generator{lang: lang, r: r, enc: utf8Enc}
}

// Lang returns the generator's language.
func (g *Generator) Lang() Lang { return g.lang }

// Word returns one word-like unit.
func (g *Generator) Word() string { return string(g.appendWord(nil)) }

func (g *Generator) appendWord(dst []byte) []byte {
	switch g.lang {
	case charset.LangJapanese:
		n := g.r.IntRange(2, 6)
		// Occasionally a katakana loanword or a kanji compound.
		switch g.r.Intn(10) {
		case 0:
			return appendN(dst, g.r, n, katakana.cdf, g.enc.katakana, &g.sh)
		case 1:
			return appendN(dst, g.r, 2, kanji.cdf, g.enc.kanji, &g.sh)
		default:
			return appendN(dst, g.r, n, hiragana.cdf, g.enc.hiragana, &g.sh)
		}
	case charset.LangThai:
		return appendN(dst, g.r, g.r.IntRange(3, 8), thai.cdf, g.enc.thai, &g.sh)
	default:
		return appendN(dst, g.r, g.r.IntRange(1, 3), engSyl, syllables, &g.sh)
	}
}

// Sentence returns a sentence of roughly n words with language-appropriate
// separators and terminal punctuation.
func (g *Generator) Sentence(n int) string { return string(g.appendSentence(nil, n)) }

func (g *Generator) appendSentence(dst []byte, n int) []byte {
	if n <= 0 {
		n = g.r.IntRange(4, 12)
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			switch g.lang {
			case charset.LangJapanese:
				// Japanese does not use spaces; insert an occasional comma.
				if g.r.Bool(0.15) {
					dst = g.sh.AppendRune(dst, g.enc.comma)
				}
			default:
				dst = g.sh.AppendASCII(dst, " ")
			}
		}
		dst = g.appendWord(dst)
	}
	switch g.lang {
	case charset.LangJapanese:
		dst = g.sh.AppendRune(dst, g.enc.stop)
	case charset.LangThai:
		// Thai marks sentence boundaries with a space; nothing to add.
	default:
		dst = g.sh.AppendASCII(dst, ".")
	}
	return dst
}

// Paragraph returns roughly n sentences joined appropriately.
func (g *Generator) Paragraph(n int) string { return string(g.appendParagraph(nil, n)) }

func (g *Generator) appendParagraph(dst []byte, n int) []byte {
	if n <= 0 {
		n = g.r.IntRange(2, 6)
	}
	for i := 0; i < n; i++ {
		if i > 0 && g.lang != charset.LangJapanese {
			dst = g.sh.AppendASCII(dst, " ")
		}
		dst = g.appendSentence(dst, 0)
	}
	return dst
}

// Title returns a short title-like phrase.
func (g *Generator) Title() string { return string(g.appendTitle(nil)) }

func (g *Generator) appendTitle(dst []byte) []byte {
	n := g.r.IntRange(2, 5)
	for i := 0; i < n; i++ {
		if i > 0 && g.lang != charset.LangJapanese {
			dst = g.sh.AppendASCII(dst, " ")
		}
		dst = g.appendWord(dst)
	}
	return dst
}
