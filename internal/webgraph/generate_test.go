package webgraph

import (
	"math"
	"testing"
	"testing/quick"

	"langcrawl/internal/charset"
)

func genSmall(t *testing.T, cfg Config) *Space {
	t.Helper()
	s, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGenerateDeterministic(t *testing.T) {
	a := genSmall(t, ThaiLike(3000, 7))
	b := genSmall(t, ThaiLike(3000, 7))
	if da, db := spaceDigest(a), spaceDigest(b); da != db {
		t.Fatalf("same config, different spaces: digest %016x vs %016x", da, db)
	}
	c := genSmall(t, ThaiLike(3000, 8))
	if spaceDigest(c) == spaceDigest(a) {
		t.Fatal("different seeds produced the same space")
	}
}

func TestRelevanceRatioTracksConfig(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want float64
	}{
		{ThaiLike(20000, 3), 0.35},
		{JapaneseLike(20000, 3), 0.71},
	} {
		s := genSmall(t, tc.cfg)
		st := s.ComputeStats()
		if math.Abs(st.RelevanceRatio-tc.want) > 0.06 {
			t.Errorf("%v: relevance ratio %.3f, want ~%.2f", tc.cfg.Target, st.RelevanceRatio, tc.want)
		}
	}
}

func TestAllRelevantReachableFromSeeds(t *testing.T) {
	// The paper's soft-focused mode reaches 100% coverage; that is only
	// possible because every relevant page in the trace is reachable.
	// The generator must guarantee the same.
	for _, cfg := range []Config{ThaiLike(8000, 11), JapaneseLike(8000, 11)} {
		s := genSmall(t, cfg)
		got, _ := s.ReachableFromSeeds()
		if got != s.RelevantTotal() {
			t.Errorf("%v: %d of %d relevant OK pages reachable", cfg.Target, got, s.RelevantTotal())
		}
	}
}

func TestHiddenSitesExistAndAreHiddenFromRelevantPages(t *testing.T) {
	cfg := ThaiLike(20000, 5)
	s := genSmall(t, cfg)
	st := s.ComputeStats()
	if st.HiddenSites == 0 {
		t.Fatal("expected some hidden relevant sites at 20k pages")
	}
	// No relevant page may link into a hidden site (its entries come only
	// through irrelevant pages) — except pages of the hidden site itself.
	for id := 0; id < s.N(); id++ {
		if !s.IsRelevant(PageID(id)) {
			continue
		}
		for _, tgt := range s.Outlinks(PageID(id)) {
			tgtSite := s.Sites[s.SiteOf[tgt]]
			if tgtSite.Hidden && s.SiteOf[tgt] != s.SiteOf[PageID(id)] {
				t.Fatalf("relevant page %d links into hidden site %s", id, tgtSite.Host)
			}
		}
	}
}

func TestLanguageLocality(t *testing.T) {
	// §3 of the paper: pages are mostly linked by pages of the same
	// language. Measure the same-language fraction of inter-site links
	// and require it to be clearly above the relevance ratio (what
	// random linking would give).
	s := genSmall(t, ThaiLike(20000, 9))
	same, total := 0, 0
	for id := 0; id < s.N(); id++ {
		for _, tgt := range s.Outlinks(PageID(id)) {
			if s.SiteOf[tgt] == s.SiteOf[PageID(id)] {
				continue
			}
			total++
			if s.Lang[tgt] == s.Lang[PageID(id)] {
				same++
			}
		}
	}
	if total == 0 {
		t.Fatal("no inter-site links generated")
	}
	frac := float64(same) / float64(total)
	if frac < 0.6 {
		t.Errorf("same-language inter-site link fraction %.3f too low for locality", frac)
	}
}

func TestMislabeledAndMissingMeta(t *testing.T) {
	cfg := ThaiLike(20000, 13)
	s := genSmall(t, cfg)
	st := s.ComputeStats()
	if st.MislabeledOK == 0 {
		t.Error("expected some mislabeled/missing-META relevant pages (§3 observation 3)")
	}
	// But the overwhelming majority must be labeled correctly.
	if frac := float64(st.MislabeledOK) / float64(st.RelevantOK); frac > 0.25 {
		t.Errorf("mislabel fraction %.3f implausibly high", frac)
	}
}

func TestCharsetsMatchLanguage(t *testing.T) {
	s := genSmall(t, ThaiLike(5000, 17))
	for id := 0; id < s.N(); id++ {
		if got := charset.LanguageOf(s.Charset[id]); got != s.Lang[id] {
			t.Fatalf("page %d: lang %v but charset %v (%v)", id, s.Lang[id], s.Charset[id], got)
		}
	}
}

func TestStatusDistribution(t *testing.T) {
	cfg := ThaiLike(20000, 19)
	s := genSmall(t, cfg)
	var ok, notFound, errs int
	for id := 0; id < s.N(); id++ {
		switch s.Status[id] {
		case 200:
			ok++
		case 404:
			notFound++
		case 500:
			errs++
		default:
			t.Fatalf("unexpected status %d", s.Status[id])
		}
	}
	if notFound == 0 || errs == 0 {
		t.Error("expected some 404s and 500s")
	}
	if float64(ok)/float64(s.N()) < 0.9 {
		t.Errorf("OK fraction %.3f below configured rates", float64(ok)/float64(s.N()))
	}
}

func TestURLRoundTrip(t *testing.T) {
	s := genSmall(t, ThaiLike(3000, 23))
	for id := 0; id < s.N(); id++ {
		u := s.URL(PageID(id))
		got, ok := s.PageByURL(u)
		if !ok || got != PageID(id) {
			t.Fatalf("PageByURL(URL(%d)) = %d, %v (url %s)", id, got, ok, u)
		}
	}
}

func TestPageByURLRejectsJunk(t *testing.T) {
	s := genSmall(t, ThaiLike(500, 29))
	for _, u := range []string{
		"http://unknown-host.example/",
		"https://" + s.Sites[0].Host + "/",
		s.Sites[0].Host + "/p1.html",
		"http://" + s.Sites[0].Host + "/nosuch.html",
		"http://" + s.Sites[0].Host + "/p999999.html",
		"http://" + s.Sites[0].Host + "/p1.txt",
		"",
	} {
		if _, ok := s.PageByURL(u); ok {
			t.Errorf("PageByURL(%q) accepted junk", u)
		}
	}
}

func TestPageBytesDeterministicAndDetectable(t *testing.T) {
	s := genSmall(t, ThaiLike(2000, 31))
	checked := 0
	for id := 0; id < s.N() && checked < 50; id++ {
		if !s.IsOK(PageID(id)) {
			continue
		}
		checked++
		a := s.PageBytes(PageID(id))
		b := s.PageBytes(PageID(id))
		if string(a) != string(b) {
			t.Fatalf("PageBytes(%d) not deterministic", id)
		}
		if got := charset.Detect(a); got.Language != s.Lang[id] &&
			s.Lang[id] != charset.LangEnglish { // English splits ASCII/Latin1 fine
			t.Errorf("page %d (%v/%v) detected as %v/%v", id, s.Lang[id], s.Charset[id], got.Charset, got.Language)
		}
	}
	if checked == 0 {
		t.Fatal("no OK pages checked")
	}
}

func TestSeedsAreRelevantHomePages(t *testing.T) {
	s := genSmall(t, ThaiLike(10000, 37))
	if len(s.Seeds) == 0 {
		t.Fatal("no seeds")
	}
	for _, seed := range s.Seeds {
		if !s.IsRelevant(seed) || !s.IsOK(seed) {
			t.Errorf("seed %d not a relevant OK page", seed)
		}
		site := s.Site(seed)
		if site.Start != seed {
			t.Errorf("seed %d is not a home page", seed)
		}
		if site.Hidden {
			t.Errorf("seed %d belongs to a hidden site", seed)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		func() Config { c := ThaiLike(1, 1); return c }(),
		func() Config { c := ThaiLike(100, 1); c.RelevanceRatio = 0; return c }(),
		func() Config { c := ThaiLike(100, 1); c.RelevanceRatio = 1.5; return c }(),
		func() Config { c := ThaiLike(100, 1); c.FillerLangs = nil; return c }(),
		func() Config {
			c := ThaiLike(100, 1)
			c.FillerLangs = []charset.Language{charset.LangThai}
			return c
		}(),
		func() Config { c := ThaiLike(100, 1); c.Locality = -0.1; return c }(),
		func() Config { c := ThaiLike(100, 1); c.MeanOutDegree = 0; return c }(),
		func() Config { c := ThaiLike(100, 1); c.DeadLinkRate = 0.5; c.ServerErrorRate = 0.5; return c }(),
		func() Config { c := ThaiLike(100, 1); c.SeedCount = 0; return c }(),
		func() Config { c := ThaiLike(100, 1); c.Target = charset.LangOther; return c }(),
		func() Config {
			c := ThaiLike(100, 1)
			c.FillerLangs = []charset.Language{charset.LangEnglish, charset.LangOther}
			return c
		}(),
		func() Config { c := ThaiLike(100, 1); c.Target = charset.LangOther + 1; return c }(),
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func TestFullyRelevantSpace(t *testing.T) {
	cfg := ThaiLike(2000, 41)
	cfg.RelevanceRatio = 1
	cfg.FillerLangs = nil
	cfg.HiddenSiteFrac = 0 // nothing to hide behind without irrelevant sites
	s := genSmall(t, cfg)
	st := s.ComputeStats()
	if st.IrrelevantOK != 0 && float64(st.IrrelevantOK)/float64(st.OKPages) > cfg.PageLangNoise*2 {
		t.Errorf("fully relevant space has %d irrelevant pages", st.IrrelevantOK)
	}
	if st.HiddenSites != 0 {
		t.Error("no hidden sites possible without irrelevant sites")
	}
}

// Property: generation at arbitrary small sizes and seeds always yields
// a valid space whose relevant pages are all reachable.
func TestGenerateValidQuick(t *testing.T) {
	f := func(pages uint16, seed uint64) bool {
		p := int(pages)%2000 + 50
		s, err := Generate(ThaiLike(p, seed))
		if err != nil {
			return false
		}
		if s.Validate() != nil {
			return false
		}
		got, _ := s.ReachableFromSeeds()
		return got == s.RelevantTotal()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestComputeStatsConsistency(t *testing.T) {
	s := genSmall(t, JapaneseLike(5000, 43))
	st := s.ComputeStats()
	if st.RelevantOK+st.IrrelevantOK != st.OKPages {
		t.Error("relevant + irrelevant != OK")
	}
	if st.OKPages > st.TotalPages {
		t.Error("OK > total")
	}
	if st.RelevantOK != s.RelevantTotal() {
		t.Errorf("stats RelevantOK %d != cached %d", st.RelevantOK, s.RelevantTotal())
	}
	if st.Links != s.Links() {
		t.Error("stats links mismatch")
	}
}
