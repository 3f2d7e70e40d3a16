package textgen

import (
	"sync"

	"langcrawl/internal/charset"
	"langcrawl/internal/rng"
)

// PageSpec describes an HTML page to synthesize.
type PageSpec struct {
	// Lang is the language of the body text.
	Lang Lang
	// Charset is the encoding the page bytes are actually written in.
	Charset charset.Charset
	// DeclaredCharset is what the META tag claims. charset.Unknown omits
	// the META declaration entirely; a value different from Charset
	// produces a *mislabeled* page — the paper's §3 observation 3.
	DeclaredCharset charset.Charset
	// Links are the outgoing anchors, in order.
	Links []string
	// LinkIDs and AppendLink give the anchors without building a string
	// per href: when AppendLink is non-nil the page has one anchor per
	// LinkIDs entry, in order, whose href is what AppendLink(dst, id)
	// appends, and Links is ignored. The IDs mean nothing to this
	// package; webgraph passes page IDs and Space.AppendURL.
	LinkIDs    []uint32
	AppendLink func(dst []byte, id uint32) []byte
	// Paragraphs is the number of body paragraphs (default 3).
	Paragraphs int
}

// HTMLPage synthesizes a complete HTML document per spec, drawing all
// text from r, and returns it encoded in spec.Charset. The structure is
// deliberately ordinary: head with title and optional META charset, body
// with headings, paragraphs, and anchor elements interleaved with text —
// what a link extractor meets in the wild.
func HTMLPage(spec PageSpec, r *rng.RNG) []byte {
	return AppendHTMLPage(nil, spec, r)
}

// scratch holds the href of the anchor being written (its escaped form
// after it, when the href needs the codec) and, for a UTF-16 page, the
// UTF-8 form the page is widened from. A scratch belongs to one
// AppendHTMLPage call from Get to Put, and nothing a caller sees aliases
// it.
type scratch struct {
	page, href []byte
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// AppendHTMLPage is HTMLPage appending into a caller-owned buffer, so
// tight simulation loops can regenerate page after page without a fresh
// slice each time. It returns the extended buffer; the bytes appended
// are identical to HTMLPage's. With dst's capacity warmed it does not
// allocate. It may overwrite a few bytes of dst's spare capacity past
// the page (charset.Shift.AppendRune).
//
// The page is written straight in its charset, glyph by glyph from the
// encoding tables. A UTF-16 page, whose bytes are not ASCII-compatible,
// is written as UTF-8 and widened once through its codec; a page with no
// charset is UTF-8.
func AppendHTMLPage(dst []byte, spec PageSpec, r *rng.RNG) []byte {
	sc := scratchPool.Get().(*scratch)
	enc := utf8Enc // a charset with no codec
	if int(spec.Charset) < len(encodings) {
		enc = encodings[spec.Charset]
	}
	if enc != nil {
		dst = writePage(dst, spec, r, enc, sc)
	} else { // UTF-16
		sc.page = writePage(sc.page[:0], spec, r, utf8Enc, sc)
		dst = charset.AppendEncodeBytes(charset.CodecFor(spec.Charset), dst, sc.page)
	}
	scratchPool.Put(sc)
	return dst
}

// writePage appends the page in enc's charset. Markup that follows text
// goes through g.sh, which first returns an ISO-2022-JP stream to ASCII
// mode; the rest follows markup, so the stream is in ASCII mode already.
func writePage(b []byte, spec PageSpec, r *rng.RNG, enc *encoding, sc *scratch) []byte {
	g := Generator{lang: spec.Lang, r: r, enc: enc}
	b = append(b, "<!DOCTYPE html>\n<html>\n<head>\n"...)
	if spec.DeclaredCharset != charset.Unknown {
		b = append(b, `<meta http-equiv="Content-Type" content="text/html; charset=`...)
		b = append(b, spec.DeclaredCharset.String()...)
		b = append(b, "\">\n"...)
	}
	b = append(b, "<title>"...)
	b = g.appendTitle(b)
	b = g.sh.AppendASCII(b, "</title>\n</head>\n<body>\n<h1>")
	b = g.appendTitle(b)
	b = g.sh.AppendASCII(b, "</h1>\n")

	paras := spec.Paragraphs
	if paras <= 0 {
		paras = 3
	}
	links := len(spec.Links)
	if spec.AppendLink != nil {
		links = len(spec.LinkIDs)
	}
	for i := 0; i < paras; i++ {
		b = g.sh.AppendASCII(b, "<p>")
		b = g.appendParagraph(b, 0)
		// Spread links across paragraphs.
		for j := i * links / paras; j < (i+1)*links/paras; j++ {
			if spec.AppendLink != nil {
				sc.href = spec.AppendLink(sc.href[:0], spec.LinkIDs[j])
			} else {
				sc.href = append(sc.href[:0], spec.Links[j]...)
			}
			b = g.sh.AppendASCII(b, ` <a href="`)
			b = sc.appendHref(b, enc.codec)
			b = append(b, `">`...)
			b = g.appendWord(b)
			b = g.sh.AppendASCII(b, "</a>")
		}
		b = g.sh.AppendASCII(b, "</p>\n")
	}
	return g.sh.AppendASCII(b, "</body>\n</html>\n")
}

// hrefStop marks the bytes an href scan stops at: the three a
// double-quoted attribute escapes, and every non-ASCII byte.
var hrefStop = func() (t [256]bool) {
	t['&'], t['"'], t['<'] = true, true, true
	for c := 0x80; c < 0x100; c++ {
		t[c] = true
	}
	return t
}()

// appendHref appends sc.href as the value of a double-quoted attribute,
// in ASCII mode and leaving the stream in it. One scan finds the first
// byte to escape or encode; a plain href, which has neither, is one
// copy and is the same in every charset written here. Any other is
// escaped after itself in sc.href and encoded by codec from ASCII mode,
// invalid UTF-8 included; every codec writes ASCII as itself.
func (sc *scratch) appendHref(dst []byte, codec charset.Codec) []byte {
	s := sc.href
	i := 0
	for i < len(s) && !hrefStop[s[i]] {
		i++
	}
	if i == len(s) {
		return append(dst, s...)
	}
	sc.href = appendEscapedAttr(append(sc.href, s[:i]...), s[i:])
	return charset.AppendEncodeBytes(codec, dst, sc.href[len(s):])
}

// appendEscapedAttr appends s, escaped as the value of a double-quoted
// attribute.
func appendEscapedAttr(dst, s []byte) []byte {
	for _, c := range s {
		switch c {
		case '&':
			dst = append(dst, "&amp;"...)
		case '"':
			dst = append(dst, "&quot;"...)
		case '<':
			dst = append(dst, "&lt;"...)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}
