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

// scratch holds the UTF-8 form of the page being built and the href of
// the anchor being written. A scratch belongs to one AppendHTMLPage
// call from Get to Put, and nothing a caller sees aliases it: the page
// reaches dst only through the transcoding pass.
type scratch struct {
	page, href []byte
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// AppendHTMLPage is HTMLPage appending into a caller-owned buffer, so
// tight simulation loops can regenerate page after page without a fresh
// slice each time. It returns the extended buffer; the bytes appended
// are identical to HTMLPage's. With dst's capacity warmed it does not
// allocate.
func AppendHTMLPage(dst []byte, spec PageSpec, r *rng.RNG) []byte {
	sc := scratchPool.Get().(*scratch)
	g := Generator{lang: spec.Lang, r: r}
	b := sc.page[:0]

	b = append(b, "<!DOCTYPE html>\n<html>\n<head>\n"...)
	if spec.DeclaredCharset != charset.Unknown {
		b = append(b, `<meta http-equiv="Content-Type" content="text/html; charset=`...)
		b = append(b, spec.DeclaredCharset.String()...)
		b = append(b, "\">\n"...)
	}
	b = append(b, "<title>"...)
	b = g.appendTitle(b)
	b = append(b, "</title>\n</head>\n<body>\n<h1>"...)
	b = g.appendTitle(b)
	b = append(b, "</h1>\n"...)

	paras := spec.Paragraphs
	if paras <= 0 {
		paras = 3
	}
	links := len(spec.Links)
	if spec.AppendLink != nil {
		links = len(spec.LinkIDs)
	}
	for i := 0; i < paras; i++ {
		b = append(b, "<p>"...)
		b = g.appendParagraph(b, 0)
		// Spread links across paragraphs.
		for j := i * links / paras; j < (i+1)*links/paras; j++ {
			if spec.AppendLink != nil {
				sc.href = spec.AppendLink(sc.href[:0], spec.LinkIDs[j])
			} else {
				sc.href = append(sc.href[:0], spec.Links[j]...)
			}
			b = append(b, ` <a href="`...)
			b = appendEscapedAttr(b, sc.href)
			b = append(b, `">`...)
			b = g.appendWord(b)
			b = append(b, "</a>"...)
		}
		b = append(b, "</p>\n"...)
	}
	b = append(b, "</body>\n</html>\n"...)

	codec := charset.CodecFor(spec.Charset)
	if codec == nil {
		codec = charset.CodecFor(charset.UTF8)
	}
	dst = charset.AppendEncodeBytes(codec, dst, b)
	sc.page = b
	scratchPool.Put(sc)
	return dst
}

// appendEscapedAttr appends s as the value of a double-quoted attribute.
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
