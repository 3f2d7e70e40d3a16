package textgen

import (
	"fmt"
	"strings"

	"langcrawl/internal/charset"
	"langcrawl/internal/rng"
)

// The string-building page generator as it stood before the append-only
// rewrite, kept verbatim as the oracle the differential and fuzz tests
// compare against: it fixes the RNG draw order and the bytes that every
// golden trace was recorded with.

type legacyGenerator struct {
	lang   Lang
	r      *rng.RNG
	hira   *rng.Weighted
	kata   *rng.Weighted
	kanji  *rng.Weighted
	thai   *rng.Weighted
	engSyl *rng.Weighted
}

func newLegacy(lang Lang, r *rng.RNG) *legacyGenerator {
	g := &legacyGenerator{lang: lang, r: r}
	g.hira = legacyWeighted(hiraganaCommon)
	g.kata = legacyWeighted(katakanaCommon)
	g.kanji = legacyWeighted(kanjiCommon)
	g.thai = legacyWeighted(thaiCommon)
	w := make([]float64, len(englishSyllables))
	for i := range w {
		w[i] = 1 + 3/float64(i+1)
	}
	g.engSyl = rng.NewWeighted(w)
	return g
}

func legacyWeighted(tab []glyph) *rng.Weighted {
	w := make([]float64, len(tab))
	for i, e := range tab {
		w[i] = e.w
	}
	return rng.NewWeighted(w)
}

// Word returns one word-like unit.
func (g *legacyGenerator) Word() string {
	switch g.lang {
	case charset.LangJapanese:
		return g.japaneseWord()
	case charset.LangThai:
		return g.thaiWord()
	default:
		return g.englishWord()
	}
}

func (g *legacyGenerator) japaneseWord() string {
	var sb strings.Builder
	n := g.r.IntRange(2, 6)
	// Occasionally a katakana loanword or a kanji compound.
	switch g.r.Intn(10) {
	case 0:
		for i := 0; i < n; i++ {
			sb.WriteRune(katakanaCommon[g.kata.Sample(g.r)].r)
		}
	case 1:
		for i := 0; i < 2; i++ {
			sb.WriteRune(kanjiCommon[g.kanji.Sample(g.r)].r)
		}
	default:
		for i := 0; i < n; i++ {
			sb.WriteRune(hiraganaCommon[g.hira.Sample(g.r)].r)
		}
	}
	return sb.String()
}

func (g *legacyGenerator) thaiWord() string {
	var sb strings.Builder
	n := g.r.IntRange(3, 8)
	for i := 0; i < n; i++ {
		sb.WriteRune(thaiCommon[g.thai.Sample(g.r)].r)
	}
	return sb.String()
}

func (g *legacyGenerator) englishWord() string {
	var sb strings.Builder
	n := g.r.IntRange(1, 3)
	for i := 0; i < n; i++ {
		sb.WriteString(englishSyllables[g.engSyl.Sample(g.r)])
	}
	return sb.String()
}

// Sentence returns a sentence of roughly n words with language-appropriate
// separators and terminal punctuation.
func (g *legacyGenerator) Sentence(n int) string {
	if n <= 0 {
		n = g.r.IntRange(4, 12)
	}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			switch g.lang {
			case charset.LangJapanese:
				// Japanese does not use spaces; insert an occasional comma.
				if g.r.Bool(0.15) {
					sb.WriteRune('、')
				}
			default:
				sb.WriteByte(' ')
			}
		}
		sb.WriteString(g.Word())
	}
	switch g.lang {
	case charset.LangJapanese:
		sb.WriteRune('。')
	case charset.LangThai:
		// Thai marks sentence boundaries with a space; nothing to add.
	default:
		sb.WriteByte('.')
	}
	return sb.String()
}

// Paragraph returns roughly n sentences joined appropriately.
func (g *legacyGenerator) Paragraph(n int) string {
	if n <= 0 {
		n = g.r.IntRange(2, 6)
	}
	parts := make([]string, n)
	for i := range parts {
		parts[i] = g.Sentence(0)
	}
	sep := " "
	if g.lang == charset.LangJapanese {
		sep = ""
	}
	return strings.Join(parts, sep)
}

// Title returns a short title-like phrase.
func (g *legacyGenerator) Title() string {
	n := g.r.IntRange(2, 5)
	var parts []string
	for i := 0; i < n; i++ {
		parts = append(parts, g.Word())
	}
	sep := " "
	if g.lang == charset.LangJapanese {
		sep = ""
	}
	return strings.Join(parts, sep)
}

func legacyAppendHTMLPage(dst []byte, spec PageSpec, r *rng.RNG) []byte {
	g := newLegacy(spec.Lang, r)
	var sb strings.Builder

	sb.WriteString("<!DOCTYPE html>\n<html>\n<head>\n")
	if spec.DeclaredCharset != charset.Unknown {
		fmt.Fprintf(&sb, "<meta http-equiv=\"Content-Type\" content=\"text/html; charset=%s\">\n",
			spec.DeclaredCharset)
	}
	fmt.Fprintf(&sb, "<title>%s</title>\n</head>\n<body>\n", legacyEscapeHTML(g.Title()))
	fmt.Fprintf(&sb, "<h1>%s</h1>\n", legacyEscapeHTML(g.Title()))

	paras := spec.Paragraphs
	if paras <= 0 {
		paras = 3
	}
	links := spec.Links
	for i := 0; i < paras; i++ {
		sb.WriteString("<p>")
		sb.WriteString(legacyEscapeHTML(g.Paragraph(0)))
		// Spread links across paragraphs.
		lo := i * len(links) / paras
		hi := (i + 1) * len(links) / paras
		for _, href := range links[lo:hi] {
			fmt.Fprintf(&sb, " <a href=\"%s\">%s</a>", legacyEscapeAttr(href), legacyEscapeHTML(g.Word()))
		}
		sb.WriteString("</p>\n")
	}
	sb.WriteString("</body>\n</html>\n")

	codec := charset.CodecFor(spec.Charset)
	if codec == nil {
		codec = charset.CodecFor(charset.UTF8)
	}
	return charset.AppendEncode(codec, dst, sb.String())
}

func legacyEscapeHTML(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}

func legacyEscapeAttr(s string) string {
	r := strings.NewReplacer("&", "&amp;", "\"", "&quot;", "<", "&lt;")
	return r.Replace(s)
}
