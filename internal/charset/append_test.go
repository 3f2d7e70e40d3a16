package charset

import (
	"math/rand"
	"strings"
	"testing"
)

// parseAliases is every alias Parse recognizes. TestParseBytesMatchesParse
// walks case and decoration variants of each, which is what pins
// ParseBytes's duplicated switch to Parse's.
var parseAliases = []string{
	"us-ascii", "ascii", "ansi_x3.4-1968", "iso646-us",
	"utf-8", "utf8",
	"iso-8859-1", "iso8859-1", "latin1", "latin-1", "l1", "cp819", "windows-1252", "cp1252",
	"euc-jp", "eucjp", "x-euc-jp", "ujis",
	"shift_jis", "shift-jis", "shiftjis", "sjis", "x-sjis", "ms_kanji", "cp932", "windows-31j",
	"iso-2022-jp", "iso2022jp", "csiso2022jp", "jis",
	"tis-620", "tis620", "tis-62", "iso-ir-166",
	"windows-874", "cp874", "x-windows-874", "ms874",
	"iso-8859-11", "iso8859-11", "iso-8859-11:2001",
	"utf-16le", "utf16le", "utf-16", "utf16", "unicode",
	"utf-16be", "utf16be", "unicodefffe",
}

func TestParseBytesMatchesParse(t *testing.T) {
	decorate := []func(string) string{
		func(s string) string { return s },
		strings.ToUpper,
		strings.Title, //nolint:staticcheck // deliberate mixed-case exercise
		func(s string) string { return " " + s + " " },
		func(s string) string { return `"` + s + `"` },
		func(s string) string { return "'" + s + "'" },
		func(s string) string { return "\t" + strings.ToUpper(s) + "\n" },
		func(s string) string { return s + "x" },
		func(s string) string { return "x" + s },
	}
	inputs := append([]string{}, parseAliases...)
	inputs = append(inputs, "", " ", "bogus", "utf", "this-name-is-much-longer-than-any-real-charset-alias",
		"ütf-8", "utf-8\x80", "İSO-8859-11", "ſhift_jis", "utf\x00 8")
	for _, base := range inputs {
		for _, d := range decorate {
			s := d(base)
			if got, want := ParseBytes([]byte(s)), Parse(s); got != want {
				t.Errorf("ParseBytes(%q) = %v, Parse = %v", s, got, want)
			}
		}
	}
}

func TestParseBytesMatchesParseRandom(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	alphabet := []byte(`abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_:."' ` + "\x80\xC4\xFF\t")
	for i := 0; i < 10000; i++ {
		n := r.Intn(24)
		b := make([]byte, n)
		for j := range b {
			b[j] = alphabet[r.Intn(len(alphabet))]
		}
		if got, want := ParseBytes(b), Parse(string(b)); got != want {
			t.Fatalf("ParseBytes(%q) = %v, Parse = %v", b, got, want)
		}
	}
}

// randomText draws strings mixing ASCII, Thai, Japanese, Latin-1 and
// astral runes so every codec's mapped and unmapped branches fire.
func randomText(r *rand.Rand) string {
	runes := []rune{
		'a', 'Z', '0', ' ', '\n', '<', '&',
		'é', 'ü', 0xA0, 0xFF,
		'ก', 'ข', 'ฮ', 0x0E3F, '๙',
		'あ', 'ア', '日', '本', '語', '一', 0xFF76, // half-width katakana
		'€', '…', '—', 0x1F600, utf8RuneError,
	}
	n := r.Intn(40)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteRune(runes[r.Intn(len(runes))])
	}
	return sb.String()
}

const utf8RuneError = '�'

// TestAppendCodecsMatchStringForms pins each codec's AppendEncode /
// AppendEncodeBytes / AppendDecode against Encode / Decode on random multilingual inputs:
// the append forms must produce byte-identical output into a dirty,
// non-empty destination buffer.
func TestAppendCodecsMatchStringForms(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	all := []Charset{ASCII, UTF8, Latin1, TIS620, Windows874, ISO885911, EUCJP, ShiftJIS, ISO2022JP, UTF16LE, UTF16BE}
	prefix := []byte{0xDE, 0xAD}
	for _, cs := range all {
		codec := CodecFor(cs)
		if codec == nil {
			t.Fatalf("no codec for %v", cs)
		}
		for i := 0; i < 2000; i++ {
			s := randomText(r)
			enc := codec.Encode(s)
			gotEnc := AppendEncode(codec, append([]byte{}, prefix...), s)
			if string(gotEnc[:2]) != string(prefix) || string(gotEnc[2:]) != string(enc) {
				t.Fatalf("%v AppendEncode(%q) = %q, Encode = %q", cs, s, gotEnc, enc)
			}
			src := []byte(s)
			if got := AppendEncodeBytes(codec, append([]byte{}, prefix...), src); string(got) != string(gotEnc) || string(src) != s {
				t.Fatalf("%v AppendEncodeBytes(%q) = %q, AppendEncode = %q (src now %q)", cs, s, got, gotEnc, src)
			}

			// Decode arbitrary bytes too, not just round-trips.
			var raw []byte
			if i%2 == 0 {
				raw = enc
			} else {
				raw = make([]byte, r.Intn(32))
				r.Read(raw)
			}
			dec := codec.Decode(raw)
			gotDec := AppendDecode(codec, append([]byte{}, prefix...), raw)
			if string(gotDec[:2]) != string(prefix) || string(gotDec[2:]) != dec {
				t.Fatalf("%v AppendDecode(%q) = %q, Decode = %q", cs, raw, gotDec[2:], dec)
			}
		}
	}
}
