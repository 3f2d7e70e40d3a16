package webgraph

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"langcrawl/internal/charset"
	"langcrawl/internal/rng"
)

// Config parameterizes web-space synthesis. The zero value is not
// usable; start from DefaultConfig (or the ThaiLike/JapaneseLike presets
// in presets.go) and override.
type Config struct {
	Seed   uint64
	Pages  int
	Target charset.Language

	// RelevanceRatio is the fraction of pages in the target language —
	// the paper's "language specificity" of a dataset (Thai ≈ 0.35,
	// Japanese ≈ 0.71).
	RelevanceRatio float64
	// FillerLangs are the languages of the non-target share, drawn
	// uniformly per site.
	FillerLangs []charset.Language

	// MeanSitePages and SiteSizeSigma shape the lognormal site-size
	// distribution.
	MeanSitePages float64
	SiteSizeSigma float64

	// MeanOutDegree and OutDegreeSigma shape the lognormal out-degree of
	// OK pages.
	MeanOutDegree  float64
	OutDegreeSigma float64

	// IntraSiteProb is the probability a link stays on its site.
	IntraSiteProb float64
	// Locality is the probability an inter-site link targets a site of
	// the source page's own language — the "language locality" whose
	// existence §3 of the paper argues for.
	Locality float64

	// HiddenSiteFrac marks this fraction of relevant sites as reachable
	// only through irrelevant pages (§3 observation 2 — the structures
	// that make tunneling matter).
	HiddenSiteFrac float64

	// PageLangNoise is the probability a page's language deviates from
	// its site's.
	PageLangNoise float64
	// MissingMetaRate / MislabelRate control META declarations on pages:
	// absent, or claiming a wrong charset (§3 observation 3).
	MissingMetaRate float64
	MislabelRate    float64

	// DeadLinkRate and ServerErrorRate are the probabilities of a page
	// being a 404 or a 5xx.
	DeadLinkRate    float64
	ServerErrorRate float64

	// SeedCount is the number of crawl seeds (home pages of the largest
	// visible relevant sites; the first site's home is always included).
	SeedCount int
}

// DefaultConfig returns a small Thai-like space configuration. Pages and
// Seed should be overridden by callers.
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		Pages:           10000,
		Target:          charset.LangThai,
		RelevanceRatio:  0.35,
		FillerLangs:     []charset.Language{charset.LangEnglish, charset.LangJapanese},
		MeanSitePages:   50,
		SiteSizeSigma:   1.1,
		MeanOutDegree:   10,
		OutDegreeSigma:  0.7,
		IntraSiteProb:   0.65,
		Locality:        0.85,
		HiddenSiteFrac:  0.05,
		PageLangNoise:   0.03,
		MissingMetaRate: 0.08,
		MislabelRate:    0.02,
		DeadLinkRate:    0.03,
		ServerErrorRate: 0.01,
		SeedCount:       5,
	}
}

func (c *Config) validate() error {
	switch {
	case c.Pages < 2:
		return fmt.Errorf("webgraph: Pages must be >= 2, got %d", c.Pages)
	case !hasCharsets(c.Target):
		return fmt.Errorf("webgraph: Target must be a concrete language")
	case c.RelevanceRatio <= 0 || c.RelevanceRatio > 1:
		return fmt.Errorf("webgraph: RelevanceRatio must be in (0,1], got %v", c.RelevanceRatio)
	case c.RelevanceRatio < 1 && len(c.FillerLangs) == 0:
		return fmt.Errorf("webgraph: FillerLangs required when RelevanceRatio < 1")
	case c.MeanSitePages < 1:
		return fmt.Errorf("webgraph: MeanSitePages must be >= 1")
	case c.MeanOutDegree <= 0:
		return fmt.Errorf("webgraph: MeanOutDegree must be positive")
	case c.IntraSiteProb < 0 || c.IntraSiteProb > 1,
		c.Locality < 0 || c.Locality > 1,
		c.HiddenSiteFrac < 0 || c.HiddenSiteFrac > 1,
		c.PageLangNoise < 0 || c.PageLangNoise > 1,
		c.MissingMetaRate < 0 || c.MissingMetaRate > 1,
		c.MislabelRate < 0 || c.MislabelRate > 1,
		c.DeadLinkRate < 0 || c.DeadLinkRate > 1,
		c.ServerErrorRate < 0 || c.ServerErrorRate > 1:
		return fmt.Errorf("webgraph: probabilities must be in [0,1]")
	case c.DeadLinkRate+c.ServerErrorRate > 0.9:
		return fmt.Errorf("webgraph: error rates leave too few OK pages")
	}
	for _, l := range c.FillerLangs {
		if l == c.Target {
			return fmt.Errorf("webgraph: FillerLangs must not contain the target language")
		}
		if !hasCharsets(l) {
			return fmt.Errorf("webgraph: FillerLangs must be concrete languages, got %v", l)
		}
	}
	if c.SeedCount < 1 {
		return fmt.Errorf("webgraph: SeedCount must be >= 1")
	}
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func domainFor(lang charset.Language, sid SiteID) string {
	switch lang {
	case charset.LangThai:
		if sid%3 == 0 {
			return "ac.th"
		}
		return "co.th"
	case charset.LangJapanese:
		if sid%3 == 0 {
			return "ac.jp"
		}
		return "co.jp"
	case charset.LangEnglish:
		return "example.com"
	default:
		return "example.org"
	}
}

// langSlots sizes the per-language tables, which are indexed by
// charset.Language rather than keyed by it: the link loop reads them
// once per link.
const langSlots = charset.LangOther + 1

// charsetWeights gives the per-language distribution of true encodings;
// a language with no entry cannot be a page language.
var charsetWeights = [langSlots][]struct {
	cs charset.Charset
	w  float64
}{
	charset.LangThai: {
		{charset.TIS620, 0.75}, {charset.Windows874, 0.20}, {charset.ISO885911, 0.05},
	},
	charset.LangJapanese: {
		{charset.ShiftJIS, 0.50}, {charset.EUCJP, 0.42}, {charset.ISO2022JP, 0.08},
	},
	charset.LangEnglish: {
		{charset.ASCII, 0.70}, {charset.Latin1, 0.30},
	},
}

// hasCharsets reports whether pages of lang can be synthesized.
func hasCharsets(lang charset.Language) bool {
	return lang < langSlots && len(charsetWeights[lang]) > 0
}

// Generate synthesizes a Space from cfg. The result is a pure function
// of cfg (including Seed): identical configs produce identical spaces.
func Generate(cfg Config) (*Space, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}

	s := &Space{Seed: cfg.Seed, Target: cfg.Target}

	// --- 1. Sites: sizes, languages, hosts ------------------------------
	rSites := rng.New2(cfg.Seed, 1)
	mu := math.Log(cfg.MeanSitePages) - cfg.SiteSizeSigma*cfg.SiteSizeSigma/2
	remaining := cfg.Pages
	var next PageID
	for remaining > 0 {
		size := int(cfg.MeanSitePages)
		if cfg.SiteSizeSigma > 0 {
			size = int(rSites.LogNormal(mu, cfg.SiteSizeSigma))
		}
		if size < 1 {
			size = 1
		}
		if cap := cfg.Pages/4 + 1; size > cap {
			size = cap
		}
		if size > remaining {
			size = remaining
		}
		s.Sites = append(s.Sites, Site{Start: next, Count: uint32(size)})
		next += PageID(size)
		remaining -= size
	}

	// Language assignment tracks the page-level target ratio: each site
	// is assigned the target language with probability equal to the
	// remaining deficit, which keeps the realized ratio tight around
	// RelevanceRatio for any site-size distribution.
	desired := int(math.Round(float64(cfg.Pages) * cfg.RelevanceRatio))
	targetPages, assigned := 0, 0
	firstIrrelevant := -1
	for i := range s.Sites {
		site := &s.Sites[i]
		rem := cfg.Pages - assigned
		deficit := desired - targetPages
		var isTarget bool
		switch {
		case i == 0:
			isTarget = true // site 0 anchors reachability and seeding
		case deficit <= 0:
			isTarget = false
		case deficit >= rem:
			isTarget = true
		default:
			isTarget = rSites.Bool(float64(deficit) / float64(rem))
		}
		if isTarget {
			site.Lang = cfg.Target
			targetPages += int(site.Count)
		} else {
			site.Lang = cfg.FillerLangs[rSites.Intn(len(cfg.FillerLangs))]
			if firstIrrelevant < 0 {
				firstIrrelevant = i
			}
		}
		assigned += int(site.Count)
	}
	// Correction pass: the probabilistic assignment has a hypergeometric
	// spread that is noticeable at small page counts, so greedily flip
	// sites (smallest first) while flipping reduces the page-count
	// deficit. Site 0 stays target.
	if len(cfg.FillerLangs) > 0 {
		order := make([]int, len(s.Sites)-1)
		for i := range order {
			order[i] = i + 1
		}
		sort.Slice(order, func(a, b int) bool {
			sa, sb := s.Sites[order[a]].Count, s.Sites[order[b]].Count
			if sa != sb {
				return sa < sb
			}
			return order[a] < order[b]
		})
		for pass := 0; pass < 3; pass++ {
			for _, i := range order {
				site := &s.Sites[i]
				deficit := desired - targetPages
				count := int(site.Count)
				switch {
				case site.Lang != cfg.Target && deficit > 0 && abs(deficit-count) < deficit:
					site.Lang = cfg.Target
					targetPages += count
				case site.Lang == cfg.Target && deficit < 0 && abs(deficit+count) < -deficit:
					site.Lang = cfg.FillerLangs[rSites.Intn(len(cfg.FillerLangs))]
					targetPages -= count
				}
			}
		}
	}
	firstIrrelevant = -1
	for i := range s.Sites {
		if s.Sites[i].Lang != cfg.Target {
			firstIrrelevant = i
			break
		}
	}
	// Hidden relevant sites need an earlier irrelevant site to be
	// reachable from at all.
	for i := range s.Sites {
		site := &s.Sites[i]
		if site.Lang == cfg.Target && i > 0 &&
			firstIrrelevant >= 0 && firstIrrelevant < i &&
			rSites.Bool(cfg.HiddenSiteFrac) {
			site.Hidden = true
		}
	}
	s.byHost = make(map[string]SiteID, len(s.Sites))
	for i := range s.Sites {
		site := &s.Sites[i]
		site.Host = fmt.Sprintf("site%05d.%s", i, domainFor(site.Lang, SiteID(i)))
		s.byHost[site.Host] = SiteID(i)
	}

	// --- 2. Page properties ---------------------------------------------
	n := cfg.Pages
	s.SiteOf = make([]SiteID, n)
	s.Lang = make([]charset.Language, n)
	s.Charset = make([]charset.Charset, n)
	s.Declared = make([]charset.Charset, n)
	s.Status = make([]uint16, n)
	s.Size = make([]uint32, n)

	var samplers [langSlots]*rng.Weighted
	for lang, tab := range charsetWeights {
		if len(tab) == 0 {
			continue
		}
		w := make([]float64, len(tab))
		for i, e := range tab {
			w[i] = e.w
		}
		samplers[lang] = rng.NewWeighted(w)
	}

	rPages := rng.New2(cfg.Seed, 2)
	for i := range s.Sites {
		site := &s.Sites[i]
		for ord := uint32(0); ord < site.Count; ord++ {
			id := site.Start + PageID(ord)
			s.SiteOf[id] = SiteID(i)

			lang := site.Lang
			if ord != 0 && len(cfg.FillerLangs) > 0 && rPages.Bool(cfg.PageLangNoise) {
				// A stray page in another language; home pages stay in
				// the site language so seeds are always relevant.
				if site.Lang == cfg.Target {
					lang = cfg.FillerLangs[rPages.Intn(len(cfg.FillerLangs))]
				} else {
					lang = cfg.Target
				}
			}
			s.Lang[id] = lang

			tab := charsetWeights[lang]
			cs := tab[samplers[lang].Sample(rPages)].cs
			s.Charset[id] = cs

			switch {
			case rPages.Bool(cfg.MissingMetaRate):
				s.Declared[id] = charset.Unknown
			case rPages.Bool(cfg.MislabelRate):
				if cs == charset.Latin1 {
					s.Declared[id] = charset.ASCII
				} else {
					s.Declared[id] = charset.Latin1
				}
			default:
				s.Declared[id] = cs
			}

			if ord == 0 {
				s.Status[id] = 200
			} else {
				u := rPages.Float64()
				switch {
				case u < cfg.DeadLinkRate:
					s.Status[id] = 404
				case u < cfg.DeadLinkRate+cfg.ServerErrorRate:
					s.Status[id] = 500
				default:
					s.Status[id] = 200
				}
			}
			s.Size[id] = uint32(2048 + rPages.Intn(14*1024))
		}
	}

	// --- 3. Links, built straight into CSR ------------------------------
	// Each page's out-links are one sorted, duplicate-free segment of
	// s.links, laid down in page order. The backbone edges are drawn
	// first, as (src, tgt) pairs, and bucketed by source with one
	// counting sort. The random-link loop then walks the pages in id
	// order: it copies a page's backbone targets to the end of s.links,
	// appends the page's random links behind them, and sorts and
	// compacts that segment in place. Every draw happens in the same
	// order whatever the storage, and a page's segment is the sorted set
	// of its targets, so the space does not depend on how it is built.

	// Per-language site lists for inter-site targeting, with Zipf
	// popularity so a few sites dominate inbound links, as on the Web.
	var visibleByLang [langSlots][]SiteID
	var allRelevant []SiteID
	for i := range s.Sites {
		site := &s.Sites[i]
		if site.Hidden {
			allRelevant = append(allRelevant, SiteID(i))
			continue
		}
		visibleByLang[site.Lang] = append(visibleByLang[site.Lang], SiteID(i))
		if site.Lang == cfg.Target {
			allRelevant = append(allRelevant, SiteID(i))
		}
	}
	var zipfFor [langSlots]*rng.Zipf
	for lang, list := range visibleByLang {
		if len(list) > 0 {
			zipfFor[lang] = rng.NewZipf(len(list), 0.9)
		}
	}
	var zipfAllRelevant *rng.Zipf
	if len(allRelevant) > 0 {
		zipfAllRelevant = rng.NewZipf(len(allRelevant), 0.9)
	}
	var fillerLangsPresent []charset.Language
	for _, l := range cfg.FillerLangs {
		if len(visibleByLang[l]) > 0 {
			fillerLangsPresent = append(fillerLangsPresent, l)
		}
	}

	rLinks := rng.New2(cfg.Seed, 3)

	// pageInSite picks a page of site sid with quadratic bias toward the
	// home page (low ordinals collect most inbound links).
	pageInSite := func(sid SiteID) PageID {
		site := &s.Sites[sid]
		u := rLinks.Float64()
		ord := uint32(float64(site.Count) * u * u)
		if ord >= site.Count {
			ord = site.Count - 1
		}
		return site.Start + PageID(ord)
	}

	// okPageInSite picks an OK page of site sid (home page fallback).
	// When avoidTarget is set it additionally requires the page not to be
	// in the target language — backbone links into hidden sites must come
	// from genuinely irrelevant pages, and language noise can plant
	// relevant pages even on irrelevant sites.
	okPageInSite := func(sid SiteID, avoidTarget bool) PageID {
		site := &s.Sites[sid]
		for try := 0; try < 16; try++ {
			p := site.Start + PageID(rLinks.Intn(int(site.Count)))
			if s.Status[p] == 200 && (!avoidTarget || s.Lang[p] != cfg.Target) {
				return p
			}
		}
		return site.Start // home pages are always OK and in the site language
	}

	// The backbone is a site tree per site (Count-1 edges each) plus one
	// inbound link per site but the first: n-1 edges in all.
	type edge struct{ src, tgt PageID }
	backbone := make([]edge, 0, n-1)

	// Backbone 1: within each site, a link tree over pages rooted at the
	// home page, with every child's parent being an OK page, guarantees
	// intra-site reachability.
	const branch = 4
	for i := range s.Sites {
		site := &s.Sites[i]
		for ord := uint32(1); ord < site.Count; ord++ {
			parent := (ord - 1) / branch
			for parent != 0 && s.Status[site.Start+PageID(parent)] != 200 {
				parent = (parent - 1) / branch
			}
			backbone = append(backbone, edge{site.Start + PageID(parent), site.Start + PageID(ord)})
		}
	}

	// Backbone 2: every site's home page gets one inbound link from an
	// earlier site, making the whole space reachable from site 0. Hidden
	// relevant sites take their inbound from an irrelevant site;
	// visible relevant sites from a relevant one; the rest from anywhere.
	var earlierRelevantVisible, earlierIrrelevant []SiteID
	for i := 1; i < len(s.Sites); i++ {
		site := &s.Sites[i]
		prev := &s.Sites[i-1]
		switch {
		case prev.Lang == cfg.Target && !prev.Hidden:
			earlierRelevantVisible = append(earlierRelevantVisible, SiteID(i-1))
		case prev.Lang != cfg.Target:
			earlierIrrelevant = append(earlierIrrelevant, SiteID(i-1))
		}
		var src PageID
		switch {
		case site.Hidden:
			src = okPageInSite(earlierIrrelevant[rLinks.Intn(len(earlierIrrelevant))], true)
		case site.Lang == cfg.Target:
			// The guaranteed inbound link respects the locality model:
			// with probability Locality it comes from a relevant page,
			// otherwise from an irrelevant one — so the fraction of
			// relevant sites discoverable without tunneling really is
			// governed by the locality parameter, not by the backbone.
			if rLinks.Bool(cfg.Locality) || len(earlierIrrelevant) == 0 {
				src = okPageInSite(earlierRelevantVisible[rLinks.Intn(len(earlierRelevantVisible))], false)
			} else {
				src = okPageInSite(earlierIrrelevant[rLinks.Intn(len(earlierIrrelevant))], true)
			}
		default:
			src = okPageInSite(SiteID(rLinks.Intn(i)), false)
		}
		backbone = append(backbone, edge{src, site.Start})
	}

	// Counting sort by source: afterwards page id's backbone targets are
	// bbTgt[bbEnd[id-1]:bbEnd[id]], from 0 for page 0.
	bbEnd := make([]uint32, n)
	for _, e := range backbone {
		bbEnd[e.src]++
	}
	var sum uint32
	for id, c := range bbEnd {
		bbEnd[id] = sum // start offset until the edges are placed
		sum += c
	}
	bbTgt := make([]PageID, len(backbone))
	for _, e := range backbone {
		bbTgt[bbEnd[e.src]] = e.tgt
		bbEnd[e.src]++
	}

	// Random links by the locality model. s.links starts at the expected
	// link count (OK pages times the mean out-degree, plus the backbone);
	// the segments are deduplicated as they go, so it seldom grows.
	okPages := 0
	for _, st := range s.Status {
		if st == 200 {
			okPages++
		}
	}
	s.words = make([]uint64, n+1)
	s.links = make([]PageID, 0, int(float64(okPages)*min(cfg.MeanOutDegree, 200))+len(bbTgt))
	degMu := math.Log(cfg.MeanOutDegree) - cfg.OutDegreeSigma*cfg.OutDegreeSigma/2
	var bbLo uint32
	for id := 0; id < n; id++ {
		start := len(s.links)
		s.words[id] = pageWord(uint64(start), s.Status[id], s.Charset[id], s.Declared[id], s.Lang[id])
		s.links = append(s.links, bbTgt[bbLo:bbEnd[id]]...)
		bbLo = bbEnd[id]
		if s.Status[id] == 200 { // error pages contribute no random outlinks
			deg := int(rLinks.LogNormal(degMu, cfg.OutDegreeSigma))
			if deg > 200 {
				deg = 200
			}
			srcSite := s.SiteOf[id]
			srcLang := s.Lang[id]
			for k := 0; k < deg; k++ {
				var tgt PageID
				if rLinks.Bool(cfg.IntraSiteProb) && s.Sites[srcSite].Count > 1 {
					tgt = pageInSite(srcSite)
				} else {
					var lang charset.Language
					if rLinks.Bool(cfg.Locality) || len(fillerLangsPresent) == 0 && srcLang == cfg.Target {
						lang = srcLang
					} else if srcLang == cfg.Target {
						lang = fillerLangsPresent[rLinks.Intn(len(fillerLangsPresent))]
					} else if rLinks.Bool(0.5) {
						lang = cfg.Target
					} else if len(fillerLangsPresent) > 0 {
						lang = fillerLangsPresent[rLinks.Intn(len(fillerLangsPresent))]
					} else {
						lang = srcLang
					}
					var sid SiteID
					switch {
					case lang == cfg.Target && srcLang != cfg.Target && zipfAllRelevant != nil:
						// Irrelevant sources may link into hidden sites too.
						sid = allRelevant[zipfAllRelevant.Sample(rLinks)]
					case len(visibleByLang[lang]) > 0:
						sid = visibleByLang[lang][zipfFor[lang].Sample(rLinks)]
					default:
						sid = srcSite
					}
					tgt = pageInSite(sid)
				}
				if tgt == PageID(id) {
					continue
				}
				s.links = append(s.links, tgt)
			}
		}
		seg := s.links[start:]
		slices.Sort(seg)
		s.links = s.links[:start+len(slices.Compact(seg))]
	}
	s.words[n] = uint64(len(s.links))
	if cap(s.links) != len(s.links) {
		// The space keeps s.links for its lifetime: hold no spare tail.
		s.links = append(make([]PageID, 0, len(s.links)), s.links...)
	}

	// --- 4. Seeds and caches ----------------------------------------------
	type cand struct {
		sid   SiteID
		count uint32
	}
	var cands []cand
	for i := range s.Sites {
		site := &s.Sites[i]
		if site.Lang == cfg.Target && !site.Hidden {
			cands = append(cands, cand{SiteID(i), site.Count})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].count != cands[b].count {
			return cands[a].count > cands[b].count
		}
		return cands[a].sid < cands[b].sid
	})
	seedSet := map[PageID]struct{}{s.Sites[0].Start: {}}
	s.Seeds = []PageID{s.Sites[0].Start} // site 0's home anchors reachability
	for _, c := range cands {
		if len(s.Seeds) >= cfg.SeedCount {
			break
		}
		home := s.Sites[c.sid].Start
		if _, dup := seedSet[home]; dup {
			continue
		}
		seedSet[home] = struct{}{}
		s.Seeds = append(s.Seeds, home)
	}

	for id := 0; id < n; id++ {
		if s.Status[id] == 200 && s.Lang[id] == cfg.Target {
			s.relevantOK++
		}
	}

	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("webgraph: generated space fails validation: %w", err)
	}
	return s, nil
}
