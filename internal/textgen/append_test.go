package textgen

import (
	"bytes"
	"strings"
	"testing"

	"langcrawl/internal/charset"
	"langcrawl/internal/rng"
)

// checkAgainstLegacy renders spec from seed through the append-only
// path — once with Links, once with the same hrefs behind
// LinkIDs/AppendLink — and through the legacy oracle, and requires the
// same bytes after the same prefix and the same stream position after.
func checkAgainstLegacy(t *testing.T, spec PageSpec, seed uint64) {
	t.Helper()
	prefix := []byte("prefix:")
	lr := rng.New(seed)
	want := legacyAppendHTMLPage(append([]byte(nil), prefix...), spec, lr)

	r := rng.New(seed)
	got := AppendHTMLPage(append([]byte(nil), prefix...), spec, r)
	if !bytes.Equal(got, want) {
		t.Fatalf("spec %+v seed %d: bytes differ from the legacy generator\n got %q\nwant %q", spec, seed, got, want)
	}
	if *r != *lr {
		t.Fatalf("spec %+v seed %d: stream position differs from the legacy generator", spec, seed)
	}

	byID := spec
	byID.Links = nil
	byID.LinkIDs = make([]uint32, len(spec.Links))
	for i := range byID.LinkIDs {
		byID.LinkIDs[i] = uint32(len(spec.Links) - 1 - i)
	}
	byID.AppendLink = func(dst []byte, id uint32) []byte {
		return append(dst, spec.Links[len(spec.Links)-1-int(id)]...)
	}
	if got := AppendHTMLPage(append([]byte(nil), prefix...), byID, rng.New(seed)); !bytes.Equal(got, want) {
		t.Fatalf("spec %+v seed %d: LinkIDs/AppendLink page differs from the Links page", spec, seed)
	}
}

// linkAlphabet mixes what hrefs are made of with everything the
// attribute escaper and the codecs must handle: markup bytes,
// multi-byte runes of both languages, and bytes that are not UTF-8.
var linkAlphabet = []string{
	"http://", "a", "b.example", "/", "p1.html", "?x=1", "&", "\"", "<", ">", "'", " ",
	"日本", "かな", "ไทย", "é", "\xff", "\xe3\x81", "&amp;", "%20",
}

func randomSpec(r *rng.RNG) PageSpec {
	langs := []Lang{charset.LangJapanese, charset.LangThai, charset.LangEnglish, charset.LangOther, charset.LangUnknown}
	sets := append([]charset.Charset{charset.Unknown}, charset.All()...)
	spec := PageSpec{
		Lang:            langs[r.Intn(len(langs))],
		Charset:         sets[r.Intn(len(sets))],
		DeclaredCharset: sets[r.Intn(len(sets))],
		Paragraphs:      r.IntRange(-1, 6),
	}
	for n := r.Intn(9); n > 0; n-- {
		var sb strings.Builder
		for k := r.Intn(6); k > 0; k-- {
			sb.WriteString(linkAlphabet[r.Intn(len(linkAlphabet))])
		}
		spec.Links = append(spec.Links, sb.String())
	}
	return spec
}

// TestAppendHTMLPageMatchesLegacy is the differential property: over
// random language × charset × declared charset × links × paragraphs ×
// seed, the append-only generator is byte- and draw-identical to the
// string-building one it replaced.
func TestAppendHTMLPageMatchesLegacy(t *testing.T) {
	cases := 10000
	if testing.Short() || raceEnabled {
		cases = 1000
	}
	r := rng.New(20050405)
	for i := 0; i < cases; i++ {
		checkAgainstLegacy(t, randomSpec(r), r.Uint64())
	}
}

func FuzzAppendHTMLPage(f *testing.F) {
	f.Add(uint8(1), uint8(4), uint8(4), int8(3), uint64(1), "http://a.example/\nhttp://b.example/p1.html")
	f.Add(uint8(2), uint8(7), uint8(0), int8(0), uint64(2), "/?a=1&b=\"2\"\n<\n\xff")
	f.Add(uint8(3), uint8(1), uint8(3), int8(-1), uint64(3), "")
	f.Fuzz(func(t *testing.T, lang, cs, declared uint8, paras int8, seed uint64, links string) {
		if paras > 12 {
			paras = 12 // page size, and so run time, grows with it; nothing else does
		}
		spec := PageSpec{
			Lang:            Lang(lang % 5),
			Charset:         charset.Charset(cs % 12),
			DeclaredCharset: charset.Charset(declared % 12),
			Paragraphs:      int(paras),
		}
		if links != "" {
			spec.Links = strings.Split(links, "\n")
		}
		checkAgainstLegacy(t, spec, seed)
	})
}

// TestGeneratorMatchesLegacy covers the string wrappers, including the
// explicit-count forms AppendHTMLPage never uses.
func TestGeneratorMatchesLegacy(t *testing.T) {
	for _, lang := range []Lang{charset.LangJapanese, charset.LangThai, charset.LangEnglish} {
		g, lg := New(lang, rng.New(5)), newLegacy(lang, rng.New(5))
		for i := 0; i < 300; i++ {
			n := i % 4 // 0 draws the count
			for name, pair := range map[string][2]string{
				"Word":      {g.Word(), lg.Word()},
				"Sentence":  {g.Sentence(n), lg.Sentence(n)},
				"Paragraph": {g.Paragraph(n), lg.Paragraph(n)},
				"Title":     {g.Title(), lg.Title()},
			} {
				if pair[0] != pair[1] {
					t.Fatalf("%v %s #%d: got %q, legacy %q", lang, name, i, pair[0], pair[1])
				}
			}
		}
		if *g.r != *lg.r {
			t.Fatalf("%v: stream position differs from the legacy generator", lang)
		}
	}
}

// TestInventoriesHoldNoMarkup is the condition under which generated
// text may be written into markup unescaped.
func TestInventoriesHoldNoMarkup(t *testing.T) {
	var all strings.Builder
	for _, inv := range []inventory{hiragana, katakana, kanji, thai} {
		for _, g := range inv.glyphs {
			all.WriteRune(g.r)
		}
	}
	all.WriteString(strings.Join(englishSyllables, ""))
	all.WriteString("、。 .")
	if i := strings.IndexAny(all.String(), `&<>"`); i >= 0 {
		t.Fatalf("inventory character %q needs HTML escaping", all.String()[i])
	}
}

// TestAppendHTMLPageZeroAlloc: into a warmed buffer, a page costs no
// allocation in any language or charset family — no sampler tables, no
// per-word strings, no encoding table, no string copy of an href for
// its codec.
func TestAppendHTMLPageZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	links := []string{"http://a.example/", "http://a.example/p1.html?x=1&y=2", "http://b.example/p2.html", "http://b.example/日本/ไทย"}
	for _, spec := range []PageSpec{
		{Lang: charset.LangJapanese, Charset: charset.EUCJP, DeclaredCharset: charset.EUCJP, Links: links},
		{Lang: charset.LangJapanese, Charset: charset.ShiftJIS, Links: links, Paragraphs: 5},
		{Lang: charset.LangJapanese, Charset: charset.ISO2022JP, DeclaredCharset: charset.ISO2022JP, Links: links},
		{Lang: charset.LangThai, Charset: charset.TIS620, DeclaredCharset: charset.Windows874, Links: links},
		{Lang: charset.LangThai, Charset: charset.UTF8, DeclaredCharset: charset.UTF8, Links: links},
		{Lang: charset.LangEnglish, Charset: charset.Latin1, DeclaredCharset: charset.ASCII, Links: links},
		{Lang: charset.LangJapanese, Charset: charset.UTF16LE, DeclaredCharset: charset.UTF16LE, Links: links},
	} {
		var r rng.RNG
		var buf []byte
		seed := uint64(0)
		run := func() {
			seed++
			r.Seed(seed % 8)
			buf = AppendHTMLPage(buf[:0], spec, &r)
		}
		for i := 0; i < 16; i++ {
			run() // grow buf and the pooled scratch to steady state
		}
		if n := testing.AllocsPerRun(100, run); n != 0 {
			t.Errorf("%v/%v: AppendHTMLPage allocated %.1f times per page", spec.Lang, spec.Charset, n)
		}
	}
}
