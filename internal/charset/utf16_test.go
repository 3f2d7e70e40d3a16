package charset

import (
	"bytes"
	"testing"
)

func TestUTF16RoundTrip(t *testing.T) {
	texts := []string{
		"hello",
		"こんにちは世界",
		"ภาษาไทย",
		"mixed ascii と 日本語",
		"astral: 𝄞 𐍈", // surrogate pairs
		"",
	}
	for _, cs := range []Charset{UTF16LE, UTF16BE} {
		codec := CodecFor(cs)
		for _, text := range texts {
			enc := codec.Encode(text)
			if got := codec.Decode(enc); got != text {
				t.Errorf("%v round trip of %q = %q", cs, text, got)
			}
		}
	}
}

func TestUTF16BOMEmitted(t *testing.T) {
	le := CodecFor(UTF16LE).Encode("a")
	if !bytes.HasPrefix(le, []byte{0xFF, 0xFE}) {
		t.Errorf("LE encode = % X, want FF FE prefix", le)
	}
	be := CodecFor(UTF16BE).Encode("a")
	if !bytes.HasPrefix(be, []byte{0xFE, 0xFF}) {
		t.Errorf("BE encode = % X, want FE FF prefix", be)
	}
}

func TestUTF16DecodeTrustsBOMOverConfig(t *testing.T) {
	// A BE-BOMed stream decoded by the LE codec must honor the BOM.
	be := CodecFor(UTF16BE).Encode("crawler")
	if got := CodecFor(UTF16LE).Decode(be); got != "crawler" {
		t.Errorf("LE codec on BE stream = %q", got)
	}
}

func TestUTF16DecodeWithoutBOM(t *testing.T) {
	// "ab" little-endian, no BOM.
	if got := CodecFor(UTF16LE).Decode([]byte{'a', 0, 'b', 0}); got != "ab" {
		t.Errorf("LE no-BOM decode = %q", got)
	}
	if got := CodecFor(UTF16BE).Decode([]byte{0, 'a', 0, 'b'}); got != "ab" {
		t.Errorf("BE no-BOM decode = %q", got)
	}
}

func TestUTF16DanglingByte(t *testing.T) {
	got := CodecFor(UTF16LE).Decode([]byte{'a', 0, 'x'})
	if got != "a"+string(replacement) {
		t.Errorf("dangling byte decode = %q", got)
	}
}

func TestUTF16LoneSurrogate(t *testing.T) {
	// Lone high surrogate D800 little-endian: must decode to replacement.
	got := CodecFor(UTF16LE).Decode([]byte{0xFF, 0xFE, 0x00, 0xD8})
	if got != string(replacement) {
		t.Errorf("lone surrogate = %q", got)
	}
}

func TestBOMDetection(t *testing.T) {
	le := CodecFor(UTF16LE).Encode("any text at all")
	if r := Detect(le); r.Charset != UTF16LE || r.Confidence < 0.99 {
		t.Errorf("LE detect = %v (%.2f)", r.Charset, r.Confidence)
	}
	be := CodecFor(UTF16BE).Encode("any text at all")
	if r := Detect(be); r.Charset != UTF16BE || r.Confidence < 0.99 {
		t.Errorf("BE detect = %v (%.2f)", r.Charset, r.Confidence)
	}
	// A BOM mid-stream (fed later) must not trigger.
	d := NewDetector()
	d.Feed([]byte("leading ascii "))
	d.Feed([]byte{0xFF, 0xFE})
	if got := d.Best().Charset; got == UTF16LE {
		t.Error("mid-stream FF FE misread as a BOM")
	}
}

func TestBOMlessUTF16Detection(t *testing.T) {
	// ASCII text as UTF-16 without a BOM: the null-byte distribution
	// must identify both byte orders.
	text := "plain ascii text long enough to measure the null pattern"
	le := CodecFor(UTF16LE).Encode(text)[2:] // strip BOM
	if r := Detect(le); r.Charset != UTF16LE {
		t.Errorf("BOM-less LE detect = %v (%.2f)", r.Charset, r.Confidence)
	}
	be := CodecFor(UTF16BE).Encode(text)[2:]
	if r := Detect(be); r.Charset != UTF16BE {
		t.Errorf("BOM-less BE detect = %v (%.2f)", r.Charset, r.Confidence)
	}
}

func TestUTF16ParseNames(t *testing.T) {
	cases := map[string]Charset{
		"UTF-16":   UTF16LE,
		"utf-16le": UTF16LE,
		"UTF-16BE": UTF16BE,
		"unicode":  UTF16LE,
	}
	for name, want := range cases {
		if got := Parse(name); got != want {
			t.Errorf("Parse(%q) = %v, want %v", name, got, want)
		}
	}
	for _, cs := range []Charset{UTF16LE, UTF16BE} {
		if Parse(cs.String()) != cs {
			t.Errorf("Parse(%v.String()) failed", cs)
		}
		if LanguageOf(cs) != LangOther {
			t.Errorf("LanguageOf(%v) = %v", cs, LanguageOf(cs))
		}
	}
}

// TestBOMProberCharsetPure: the byte order is read off the NUL counts,
// not left behind by confidence, so it is the same whether or not
// confidence was asked first.
func TestBOMProberCharsetPure(t *testing.T) {
	body := CodecFor(UTF16BE).Encode("plain ascii text long enough to measure the null pattern")[2:]
	var p bomProber
	p.feed(body)
	before := p.charset()
	if c := p.confidence(); c == 0 {
		t.Fatal("BOM-less UTF-16BE body gave no NUL-pattern confidence")
	}
	if after := p.charset(); before != UTF16BE || after != before {
		t.Errorf("charset() = %v before confidence(), %v after; want UTF-16BE both times", before, after)
	}
}
