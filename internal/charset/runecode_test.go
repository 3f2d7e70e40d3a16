package charset

import (
	"bytes"
	"math/rand"
	"testing"
	"unicode/utf8"
)

// TestEncodeRuneMatchesEncode: text written rune by rune from EncodeRune
// through a Shift — runs of up to four ASCII bytes through AppendASCII,
// through AppendRune of their ASCIICode or rune by rune alike — is
// byte-identical to the codec's Encode of the whole (valid UTF-8) text in
// every charset EncodeRune serves. UTF-16 is the one it refuses.
func TestEncodeRuneMatchesEncode(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	for _, cs := range All() {
		_, ok := EncodeRune(cs, 'a')
		if want := cs != UTF16LE && cs != UTF16BE; ok != want {
			t.Fatalf("EncodeRune(%v) ok = %v, want %v", cs, ok, want)
		}
		if !ok {
			continue
		}
		codec := CodecFor(cs)
		for i := 0; i < 2000; i++ {
			s := randomText(r)
			var sh Shift
			got := []byte("prefix")
			for j := 0; j < len(s); {
				if s[j] >= 0x80 {
					c, size := utf8.DecodeRuneInString(s[j:])
					rc, _ := EncodeRune(cs, c)
					got = sh.AppendRune(got, rc)
					j += size
					continue
				}
				k, most := j, j+1+r.Intn(4)
				for k < len(s) && k < most && s[k] < 0x80 {
					k++
				}
				switch unit := s[j:k]; r.Intn(3) {
				case 0:
					got = sh.AppendASCII(got, unit)
				case 1:
					got = sh.AppendRune(got, ASCIICode(unit))
				default:
					for _, c := range unit {
						rc, _ := EncodeRune(cs, c)
						got = sh.AppendRune(got, rc)
					}
				}
				j = k
			}
			got = sh.AppendASCII(got, "")
			if want := append([]byte("prefix"), codec.Encode(s)...); !bytes.Equal(got, want) {
				t.Fatalf("%v %q: rune by rune %q, Encode %q", cs, s, got, want)
			}
		}
	}
}

// TestISO2022JPShiftEscapes pins the escapes around a JIS run: one
// ESC $ B in, one ESC ( B out, before ASCII and before an unmapped rune's
// '?', and a final ESC ( B when the text ends in JIS mode.
func TestISO2022JPShiftEscapes(t *testing.T) {
	const in, out = "\x1b$B", "\x1b(B"
	for s, want := range map[string]string{
		"日本a": in + "\x46\x7c\x4b\x5c" + out + "a",
		"a日":  "a" + in + "\x46\x7c" + out,
		"日ไ日": in + "\x46\x7c" + out + "?" + in + "\x46\x7c" + out,
		"ไa":  "?a",
	} {
		if got := string(CodecFor(ISO2022JP).Encode(s)); got != want {
			t.Errorf("Encode(%q) = %q, want %q", s, got, want)
		}
	}
}

// TestASCIICodeRefuses: ASCIICode takes only ASCII text of at most four
// bytes.
func TestASCIICodeRefuses(t *testing.T) {
	for _, text := range []string{"abcde", "日", "a\x80"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ASCIICode(%q) did not panic", text)
				}
			}()
			ASCIICode(text)
		}()
	}
}
