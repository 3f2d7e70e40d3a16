// Package webgraph models and synthesizes web spaces for crawl
// simulation. A Space is an immutable snapshot — pages with language,
// charset, HTTP status and outlinks — standing in for the crawl-log
// datasets of the paper (Thai ~14M URLs, Japanese ~110M URLs), which are
// not available. The generator (generate.go) reproduces the properties
// the paper's findings rest on: relevance ratio, language locality,
// skewed site sizes and degrees, bridge paths through irrelevant pages,
// and META mislabeling.
package webgraph

import (
	"fmt"
	"strconv"
	"strings"

	"langcrawl/internal/charset"
	"langcrawl/internal/rng"
	"langcrawl/internal/textgen"
)

// PageID identifies a page within a Space. IDs are dense, starting at 0.
type PageID = uint32

// NoPage is the sentinel for "no page".
const NoPage PageID = ^PageID(0)

// SiteID identifies a site (host) within a Space.
type SiteID = uint32

// Site is one host: a contiguous run of pages sharing a hostname and a
// dominant language.
type Site struct {
	Host   string
	Lang   charset.Language
	Start  PageID // first page ID
	Count  uint32 // number of pages
	Hidden bool   // relevant site reachable only via irrelevant pages
}

// Space is an immutable synthetic web snapshot. Page properties are
// struct-of-arrays; links are CSR. Content bytes are not stored — they
// are regenerated deterministically per page on demand.
//
// Beside the exported arrays, each page has one private 64-bit page
// word: its CSR link offset in the low 36 bits, and above it its
// status, true charset, declared charset and language (see PageInfo).
// It takes the place of a plain offset array, so it costs no extra
// bytes, and a crawl step reads every property it needs in one load.
// The word is written when the space is built, so the exported arrays
// must not be mutated after construction: the page word would no
// longer agree with them.
type Space struct {
	Seed   uint64
	Target charset.Language

	Sites  []Site
	byHost map[string]SiteID

	// Per-page property arrays, all of length N().
	SiteOf   []SiteID
	Lang     []charset.Language
	Charset  []charset.Charset // the encoding page bytes are really in
	Declared []charset.Charset // META-declared charset (Unknown = absent)
	Status   []uint16          // HTTP status code
	Size     []uint32          // synthetic transfer size in bytes

	// CSR adjacency: page id's links are links[off(id):off(id+1)], where
	// off is the low bits of the page word. words has N()+1 entries;
	// the last holds only the total link count.
	words []uint64
	links []PageID

	// Seeds are the crawl entry points (home pages of prominent relevant
	// sites).
	Seeds []PageID

	relevantOK int // cached count of relevant pages with 200 status
}

// The page word's layout, from bit 0: link offset, status, true
// charset, declared charset, language. Four bits hold every Charset and
// Language; Validate rejects a space whose properties do not fit.
const (
	offBits      = 36
	offMask      = 1<<offBits - 1
	statusShift  = offBits
	charsetShift = statusShift + 16
	declShift    = charsetShift + 4
	langShift    = declShift + 4
)

// pageWord packs a page's link offset and properties.
func pageWord(off uint64, status uint16, cs, declared charset.Charset, lang charset.Language) uint64 {
	return off | uint64(status)<<statusShift | uint64(cs)<<charsetShift |
		uint64(declared)<<declShift | uint64(lang)<<langShift
}

// PageInfo is what a crawl step reads of one page, decoded from its
// page word.
type PageInfo struct {
	Status   uint16
	Charset  charset.Charset
	Declared charset.Charset
	Lang     charset.Language
	Links    []PageID // aliases the space's storage: do not modify
}

// Page returns page id's properties and out-links, from one load of
// its page word (and the next page's, which ends the link segment).
// The values are those of the exported arrays.
func (s *Space) Page(id PageID) PageInfo {
	w := s.words[id]
	return PageInfo{
		Status:   uint16(w >> statusShift),
		Charset:  charset.Charset(w >> charsetShift & 15),
		Declared: charset.Charset(w >> declShift & 15),
		Lang:     charset.Language(w >> langShift),
		Links:    s.links[w&offMask : s.words[id+1]&offMask],
	}
}

// N returns the number of pages.
func (s *Space) N() int { return len(s.SiteOf) }

// Outlinks returns the outgoing links of page id. The returned slice
// aliases internal storage and must not be modified. Pages with non-200
// status have no outlinks.
func (s *Space) Outlinks(id PageID) []PageID {
	return s.links[s.words[id]&offMask : s.words[id+1]&offMask]
}

// Links returns the total number of links in the space.
func (s *Space) Links() int { return len(s.links) }

// OutDegree returns the out-degree of page id.
func (s *Space) OutDegree(id PageID) int {
	return int(s.words[id+1]&offMask - s.words[id]&offMask)
}

// Site returns the site record of page id.
func (s *Space) Site(id PageID) *Site { return &s.Sites[s.SiteOf[id]] }

// IsRelevant reports whether page id is in the target language — the
// ground truth a simulation measures coverage against.
func (s *Space) IsRelevant(id PageID) bool { return s.Lang[id] == s.Target }

// IsOK reports whether page id has HTTP status 200.
func (s *Space) IsOK(id PageID) bool { return s.Status[id] == 200 }

// RelevantTotal returns the number of relevant pages with OK status —
// the coverage denominator, matching the paper's Table 3 accounting
// ("we show only the number of pages with OK status").
func (s *Space) RelevantTotal() int { return s.relevantOK }

// URL returns the canonical URL of page id: the site root for the
// site's first page, /p<ordinal>.html otherwise.
func (s *Space) URL(id PageID) string {
	var buf [64]byte
	return string(s.AppendURL(buf[:0], id))
}

// AppendURL appends URL(id) to dst.
func (s *Space) AppendURL(dst []byte, id PageID) []byte {
	site := s.Site(id)
	dst = append(dst, "http://"...)
	dst = append(dst, site.Host...)
	ord := id - site.Start
	if ord == 0 {
		return append(dst, '/')
	}
	dst = append(dst, "/p"...)
	dst = strconv.AppendUint(dst, uint64(ord), 10)
	return append(dst, ".html"...)
}

// PageByURL resolves a URL produced by URL back to its PageID. ok is
// false for hosts or paths outside the space.
func (s *Space) PageByURL(u string) (PageID, bool) {
	rest, found := strings.CutPrefix(u, "http://")
	if !found {
		return NoPage, false
	}
	host, path, found := strings.Cut(rest, "/")
	if !found {
		path = ""
	}
	sid, okHost := s.byHost[host]
	if !okHost {
		return NoPage, false
	}
	site := &s.Sites[sid]
	if path == "" {
		return site.Start, true
	}
	body, foundP := strings.CutPrefix(path, "p")
	body, foundH := strings.CutSuffix(body, ".html")
	if !foundP || !foundH {
		return NoPage, false
	}
	ord, err := strconv.ParseUint(body, 10, 32)
	if err != nil || uint32(ord) >= site.Count {
		return NoPage, false
	}
	return site.Start + PageID(ord), true
}

// PageBytes regenerates the page's content: a complete HTML document in
// the page's language, encoded in its true charset, declaring its
// Declared charset, and containing anchors for exactly its outlinks. The
// bytes are a pure function of (Space.Seed, id), so repeated calls agree
// — this is what lets the simulator run a byte-level charset detector
// without storing petabytes of page text.
func (s *Space) PageBytes(id PageID) []byte {
	return s.PageBytesAppend(nil, id)
}

// PageBytesAppend is PageBytes appending into a caller-owned buffer, so
// simulation hot loops can regenerate bodies without a fresh allocation
// per page. The appended bytes are identical to PageBytes's.
func (s *Space) PageBytesAppend(dst []byte, id PageID) []byte {
	return s.appendPage(dst, id, s.Lang[id], s.Charset[id], s.Declared[id], 0)
}

// appendPage synthesizes version v of page id in the given language and
// charsets: the page's own structure (paragraph count, out-links) with
// text from the stream of (Seed, id, v). Version 0 is the snapshot body.
// Into a dst with enough capacity it does not allocate: the stream lives
// on the stack and hrefs are written straight into the page.
func (s *Space) appendPage(dst []byte, id PageID, lang charset.Language, cs, declared charset.Charset, v uint32) []byte {
	spec := textgen.PageSpec{
		Lang:            lang,
		Charset:         cs,
		DeclaredCharset: declared,
		LinkIDs:         s.Outlinks(id),
		AppendLink:      s.AppendURL,
		Paragraphs:      2 + int(id%3),
	}
	var r rng.RNG
	r.Seed2(s.Seed^0xC0FFEE^(uint64(v)*0x9E3779B97F4A7C15), uint64(id))
	return textgen.AppendHTMLPage(dst, spec, &r)
}

// Stats summarizes the space the way the paper's Table 3 does.
type Stats struct {
	Target         charset.Language
	TotalPages     int // all URLs in the space
	OKPages        int // pages with 200 status
	RelevantOK     int // relevant pages with 200 status
	IrrelevantOK   int // irrelevant pages with 200 status
	RelevanceRatio float64
	Sites          int
	RelevantSites  int
	HiddenSites    int
	Links          int
	MislabeledOK   int // relevant OK pages whose META is wrong or absent
}

// ComputeStats scans the space and returns its Table 3 row.
func (s *Space) ComputeStats() Stats {
	st := Stats{Target: s.Target, TotalPages: s.N(), Sites: len(s.Sites), Links: s.Links()}
	for id := 0; id < s.N(); id++ {
		if s.Status[id] != 200 {
			continue
		}
		st.OKPages++
		if s.Lang[id] == s.Target {
			st.RelevantOK++
			if s.Declared[id] != s.Charset[id] {
				st.MislabeledOK++
			}
		} else {
			st.IrrelevantOK++
		}
	}
	if st.OKPages > 0 {
		st.RelevanceRatio = float64(st.RelevantOK) / float64(st.OKPages)
	}
	for _, site := range s.Sites {
		if site.Lang == s.Target {
			st.RelevantSites++
			if site.Hidden {
				st.HiddenSites++
			}
		}
	}
	return st
}

// Validate checks structural invariants; it is used by tests and the
// generator's own self-check. It returns the first violation found.
func (s *Space) Validate() error {
	n := s.N()
	if len(s.Lang) != n || len(s.Charset) != n || len(s.Declared) != n ||
		len(s.Status) != n || len(s.Size) != n {
		return fmt.Errorf("webgraph: property array lengths disagree")
	}
	if len(s.words) != n+1 {
		return fmt.Errorf("webgraph: %d page words, want %d", len(s.words), n+1)
	}
	if uint64(len(s.links)) > offMask {
		return fmt.Errorf("webgraph: %d links overflow the page word's offset", len(s.links))
	}
	if s.words[0]&offMask != 0 || s.words[n] != uint64(len(s.links)) {
		return fmt.Errorf("webgraph: CSR offsets do not span links")
	}
	for i := 0; i < n; i++ {
		if s.words[i]&offMask > s.words[i+1]&offMask {
			return fmt.Errorf("webgraph: CSR offsets not monotone at %d", i)
		}
		p := s.Page(PageID(i))
		if p.Status != s.Status[i] || p.Charset != s.Charset[i] || p.Declared != s.Declared[i] || p.Lang != s.Lang[i] {
			return fmt.Errorf("webgraph: page %d's word disagrees with its properties", i)
		}
	}
	for i, t := range s.links {
		if int(t) >= n {
			return fmt.Errorf("webgraph: link %d targets out-of-range page %d", i, t)
		}
	}
	var covered uint64
	for sid, site := range s.Sites {
		if s.byHost[site.Host] != SiteID(sid) {
			return fmt.Errorf("webgraph: host index broken for %s", site.Host)
		}
		for p := site.Start; p < site.Start+PageID(site.Count); p++ {
			if s.SiteOf[p] != SiteID(sid) {
				return fmt.Errorf("webgraph: page %d not attributed to site %d", p, sid)
			}
		}
		covered += uint64(site.Count)
	}
	if covered != uint64(n) {
		return fmt.Errorf("webgraph: sites cover %d pages, want %d", covered, n)
	}
	for _, seed := range s.Seeds {
		if int(seed) >= n {
			return fmt.Errorf("webgraph: seed %d out of range", seed)
		}
		if s.Status[seed] != 200 {
			return fmt.Errorf("webgraph: seed %d is not an OK page", seed)
		}
		if s.Lang[seed] != s.Target {
			return fmt.Errorf("webgraph: seed %d is not relevant", seed)
		}
	}
	for id := 0; id < n; id++ {
		if s.Status[id] != 200 && s.OutDegree(PageID(id)) != 0 {
			return fmt.Errorf("webgraph: non-OK page %d has outlinks", id)
		}
	}
	return nil
}

// ReachableFromSeeds returns the number of OK relevant pages reachable
// from the seeds, and the number of pages visited overall — a BFS used
// by tests to confirm the generator's reachability guarantee (100%
// coverage must be attainable, as in the paper's soft-focused runs).
func (s *Space) ReachableFromSeeds() (relevantOK, visited int) {
	seen := make([]bool, s.N())
	queue := make([]PageID, 0, len(s.Seeds))
	for _, sd := range s.Seeds {
		if !seen[sd] {
			seen[sd] = true
			queue = append(queue, sd)
		}
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		visited++
		if s.IsOK(p) && s.IsRelevant(p) {
			relevantOK++
		}
		for _, t := range s.Outlinks(p) {
			if !seen[t] {
				seen[t] = true
				queue = append(queue, t)
			}
		}
	}
	return relevantOK, visited
}
