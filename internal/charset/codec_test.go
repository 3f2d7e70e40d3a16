package charset

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

// Reference byte sequences validated against external sources: the
// canonical encodings of 日本語, common kana and punctuation. These pin
// the curated tables to reality, not just to internal consistency.
func TestJapaneseGoldenBytes(t *testing.T) {
	cases := []struct {
		cs   Charset
		text string
		want []byte
	}{
		{EUCJP, "日本語", []byte{0xC6, 0xFC, 0xCB, 0xDC, 0xB8, 0xEC}},
		{ShiftJIS, "日本語", []byte{0x93, 0xFA, 0x96, 0x7B, 0x8C, 0xEA}},
		{EUCJP, "あ", []byte{0xA4, 0xA2}},
		{ShiftJIS, "あ", []byte{0x82, 0xA0}},
		{EUCJP, "ア", []byte{0xA5, 0xA2}},
		{ShiftJIS, "ア", []byte{0x83, 0x41}},
		{EUCJP, "、", []byte{0xA1, 0xA2}},
		{ShiftJIS, "、", []byte{0x81, 0x41}},
		{ShiftJIS, "　", []byte{0x81, 0x40}}, // ideographic space
		{ShiftJIS, "ー", []byte{0x81, 0x5B}},
		{EUCJP, "人", []byte{0xBF, 0xCD}},
		{ShiftJIS, "人", []byte{0x90, 0x6C}},
		{ISO2022JP, "日", []byte{0x1B, '$', 'B', 0x46, 0x7C, 0x1B, '(', 'B'}},
	}
	for _, c := range cases {
		got := CodecFor(c.cs).Encode(c.text)
		if !bytes.Equal(got, c.want) {
			t.Errorf("%v.Encode(%q) = % X, want % X", c.cs, c.text, got, c.want)
		}
		back := CodecFor(c.cs).Decode(c.want)
		if back != c.text {
			t.Errorf("%v.Decode(% X) = %q, want %q", c.cs, c.want, back, c.text)
		}
	}
}

func TestThaiGoldenBytes(t *testing.T) {
	// ก = U+0E01 = 0xA1; า = U+0E32 = 0xD2; ่ = U+0E48 = 0xE8.
	cases := []struct {
		text string
		want []byte
	}{
		{"ก", []byte{0xA1}},
		{"า", []byte{0xD2}},
		{"่", []byte{0xE8}},
		{"กา", []byte{0xA1, 0xD2}},
	}
	for _, cs := range []Charset{TIS620, Windows874, ISO885911} {
		codec := CodecFor(cs)
		for _, c := range cases {
			got := codec.Encode(c.text)
			if !bytes.Equal(got, c.want) {
				t.Errorf("%v.Encode(%q) = % X, want % X", cs, c.text, got, c.want)
			}
			if back := codec.Decode(c.want); back != c.text {
				t.Errorf("%v.Decode(% X) = %q", cs, c.want, back)
			}
		}
	}
}

func TestThaiVariantDifferences(t *testing.T) {
	nbsp := " "
	if got := CodecFor(TIS620).Encode(nbsp); !bytes.Equal(got, []byte{'?'}) {
		t.Errorf("TIS-620 has no NBSP; Encode = % X", got)
	}
	if got := CodecFor(ISO885911).Encode(nbsp); !bytes.Equal(got, []byte{0xA0}) {
		t.Errorf("ISO-8859-11 NBSP = % X, want A0", got)
	}
	if got := CodecFor(Windows874).Encode("…"); !bytes.Equal(got, []byte{0x85}) {
		t.Errorf("windows-874 ellipsis = % X, want 85", got)
	}
	if got := CodecFor(TIS620).Decode([]byte{0x85}); got != string(replacement) {
		t.Errorf("TIS-620 must not decode windows punctuation: %q", got)
	}
}

func TestASCIIPassThrough(t *testing.T) {
	text := "Hello, crawler! 123 <a href=\"x\">"
	for _, cs := range All() {
		if cs == UTF16LE || cs == UTF16BE {
			continue // UTF-16 is not ASCII-compatible by design
		}
		codec := CodecFor(cs)
		enc := codec.Encode(text)
		if cs == ISO2022JP {
			// ISO-2022-JP of pure ASCII is the identity too.
			if !bytes.Equal(enc, []byte(text)) {
				t.Errorf("%v ASCII encode = %q", cs, enc)
			}
		} else if !bytes.Equal(enc, []byte(text)) {
			t.Errorf("%v should pass ASCII through: %q", cs, enc)
		}
		if dec := codec.Decode([]byte(text)); dec != text {
			t.Errorf("%v should decode ASCII to itself: %q", cs, dec)
		}
	}
}

func TestUnmappableRunesBecomeQuestionMarks(t *testing.T) {
	for _, cs := range []Charset{ASCII, EUCJP, ShiftJIS, ISO2022JP, TIS620} {
		got := CodecFor(cs).Encode("a€b")
		if !bytes.Contains(got, []byte{'?'}) {
			t.Errorf("%v.Encode of unmappable rune should contain '?': % X", cs, got)
		}
		if !bytes.HasPrefix(got, []byte{'a'}) || !bytes.HasSuffix(got, []byte{'b'}) {
			t.Errorf("%v.Encode should keep surrounding ASCII: % X", cs, got)
		}
	}
}

func TestInvalidBytesDecodeToReplacement(t *testing.T) {
	cases := []struct {
		cs Charset
		in []byte
	}{
		{ASCII, []byte{0x80}},
		{UTF8, []byte{0xFF, 0xFE}},
		{UTF8, []byte{0xC0, 0x80}}, // overlong
		{EUCJP, []byte{0xA4}},      // truncated pair
		{EUCJP, []byte{0xA4, 0x20}},
		{ShiftJIS, []byte{0x81, 0x7F}}, // invalid trail
		{ShiftJIS, []byte{0xFD}},
		{TIS620, []byte{0xDB}}, // unassigned hole
		{TIS620, []byte{0xFF}},
		{ISO2022JP, []byte{0x90}},
	}
	for _, c := range cases {
		got := CodecFor(c.cs).Decode(c.in)
		if !strings.ContainsRune(got, replacement) {
			t.Errorf("%v.Decode(% X) = %q, want replacement char", c.cs, c.in, got)
		}
	}
}

func TestDecodeNeverPanics(t *testing.T) {
	// Fuzz-ish: every codec must decode arbitrary bytes without panicking.
	f := func(b []byte) bool {
		for _, cs := range All() {
			_ = CodecFor(cs).Decode(b)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRoundTripAllMappedRunes(t *testing.T) {
	ja := string(MappedJapaneseRunes())
	for _, cs := range []Charset{EUCJP, ShiftJIS, ISO2022JP} {
		codec := CodecFor(cs)
		if got := codec.Decode(codec.Encode(ja)); got != ja {
			t.Errorf("%v round trip failed on mapped Japanese runes", cs)
		}
	}
	th := string(MappedThaiRunes())
	for _, cs := range []Charset{TIS620, Windows874, ISO885911} {
		codec := CodecFor(cs)
		if got := codec.Decode(codec.Encode(th)); got != th {
			t.Errorf("%v round trip failed on mapped Thai runes", cs)
		}
	}
}

// Property: for arbitrary text drawn from a codec's mapped repertoire
// mixed with ASCII, Decode(Encode(x)) == x.
func TestRoundTripQuick(t *testing.T) {
	jaRunes := MappedJapaneseRunes()
	thRunes := MappedThaiRunes()
	build := func(picks []uint16, pool []rune) string {
		var sb strings.Builder
		for i, p := range picks {
			if i%4 == 3 {
				sb.WriteByte(byte('a' + p%26))
			} else {
				sb.WriteRune(pool[int(p)%len(pool)])
			}
		}
		return sb.String()
	}
	for _, tc := range []struct {
		cs   Charset
		pool []rune
	}{
		{EUCJP, jaRunes}, {ShiftJIS, jaRunes}, {ISO2022JP, jaRunes},
		{TIS620, thRunes}, {Windows874, thRunes}, {ISO885911, thRunes},
		{UTF8, jaRunes}, {Latin1, []rune("àéîõüÿÆç")},
	} {
		codec := CodecFor(tc.cs)
		f := func(picks []uint16) bool {
			if len(picks) == 0 {
				return true
			}
			s := build(picks, tc.pool)
			return codec.Decode(codec.Encode(s)) == s
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%v: %v", tc.cs, err)
		}
	}
}

// runeToKuten tabulates jisKuten over every BMP rune it accepts.
var runeToKuten = func() map[rune]kuten {
	m := make(map[rune]kuten)
	for r := rune(0); r <= 0xFFFF; r++ {
		if k, ok := jisKuten(r); ok {
			m[r] = k
		}
	}
	return m
}()

func TestKutenTableInjective(t *testing.T) {
	seen := make(map[rune]kuten)
	for row := byte(1); row <= 94; row++ {
		for cell := byte(1); cell <= 94; cell++ {
			r := kutenToRune(row, cell)
			if r == 0 {
				continue
			}
			if prev, dup := seen[r]; dup {
				t.Errorf("rune %q mapped from both %v and (%d,%d)", r, prev, row, cell)
			}
			seen[r] = kuten{row, cell}
			// Inverse must agree.
			if k, ok := runeToKuten[r]; !ok || k.row != row || k.cell != cell {
				t.Errorf("runeToKuten[%q] = %v, want (%d,%d)", r, k, row, cell)
			}
		}
	}
	if len(seen) != len(runeToKuten) {
		t.Errorf("forward table has %d entries, inverse has %d", len(seen), len(runeToKuten))
	}
}

func TestSjisJisFoldInverse(t *testing.T) {
	for h := byte(0x21); h <= 0x7E; h++ {
		for l := byte(0x21); l <= 0x7E; l++ {
			s1, s2 := jisToSjis(h, l)
			if !sjisLead(s1) || !sjisTrail(s2) {
				t.Fatalf("jisToSjis(%X,%X) = (%X,%X) outside valid SJIS ranges", h, l, s1, s2)
			}
			h2, l2, ok := sjisToJis(s1, s2)
			if !ok || h2 != h || l2 != l {
				t.Fatalf("fold not invertible: (%X,%X) -> (%X,%X) -> (%X,%X,%v)", h, l, s1, s2, h2, l2, ok)
			}
		}
	}
}

func TestParseNames(t *testing.T) {
	cases := []struct {
		in   string
		want Charset
	}{
		{"EUC-JP", EUCJP},
		{"euc-jp", EUCJP},
		{" Shift_JIS ", ShiftJIS},
		{"x-sjis", ShiftJIS},
		{"ISO-2022-JP", ISO2022JP},
		{"TIS-620", TIS620},
		{"tis-62", TIS620}, // the paper's own (OCR-era) spelling
		{"windows-874", Windows874},
		{"ISO-8859-11", ISO885911},
		{"utf-8", UTF8},
		{"UTF8", UTF8},
		{"us-ascii", ASCII},
		{"latin1", Latin1},
		{"windows-1252", Latin1},
		{"\"euc-jp\"", EUCJP},
		{"klingon", Unknown},
		{"", Unknown},
	}
	for _, c := range cases {
		if got := Parse(c.in); got != c.want {
			t.Errorf("Parse(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	for _, cs := range All() {
		if got := Parse(cs.String()); got != cs {
			t.Errorf("Parse(%v.String()) = %v", cs, got)
		}
	}
}

func TestLanguageOfTable1(t *testing.T) {
	// The paper's Table 1, exactly.
	for _, cs := range []Charset{EUCJP, ShiftJIS, ISO2022JP} {
		if LanguageOf(cs) != LangJapanese {
			t.Errorf("LanguageOf(%v) should be Japanese", cs)
		}
	}
	for _, cs := range []Charset{TIS620, Windows874, ISO885911} {
		if LanguageOf(cs) != LangThai {
			t.Errorf("LanguageOf(%v) should be Thai", cs)
		}
	}
	if LanguageOf(UTF8) != LangOther {
		t.Error("UTF-8 does not identify a language")
	}
	if LanguageOf(Unknown) != LangUnknown {
		t.Error("Unknown charset has unknown language")
	}
}

func TestCharsetsForInverse(t *testing.T) {
	for _, l := range []Language{LangJapanese, LangThai, LangEnglish} {
		for _, cs := range CharsetsFor(l) {
			if LanguageOf(cs) != l {
				t.Errorf("CharsetsFor(%v) contains %v whose language is %v", l, cs, LanguageOf(cs))
			}
		}
	}
	if CharsetsFor(LangOther) != nil || CharsetsFor(LangUnknown) != nil {
		t.Error("CharsetsFor of non-specific languages should be nil")
	}
}

func TestCodecForUnknownIsNil(t *testing.T) {
	if CodecFor(Unknown) != nil {
		t.Error("CodecFor(Unknown) should be nil")
	}
	for _, cs := range All() {
		c := CodecFor(cs)
		if c == nil {
			t.Fatalf("CodecFor(%v) is nil", cs)
		}
		if c.Charset() != cs {
			t.Errorf("CodecFor(%v).Charset() = %v", cs, c.Charset())
		}
	}
}

func TestISO2022JPLineBreakResets(t *testing.T) {
	// RFC 1468: each line starts in ASCII. A JIS section left open before
	// a newline must not corrupt the following ASCII line.
	in := append([]byte{0x1B, '$', 'B', 0x24, 0x22}, []byte("\nplain")...)
	got := CodecFor(ISO2022JP).Decode(in)
	if !strings.HasSuffix(got, "\nplain") {
		t.Errorf("Decode = %q, want ASCII line preserved after newline", got)
	}
	if !strings.HasPrefix(got, "あ") {
		t.Errorf("Decode = %q, want leading あ", got)
	}
}
