package webgraph

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"langcrawl/internal/charset"
	"langcrawl/internal/rng"
	"langcrawl/internal/textgen"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/pagebytes.digest and testdata/space.digest from this tree")

const digestFile = "testdata/pagebytes.digest"

// TestPageBytesDigest freezes page synthesis byte for byte. The vector
// file was recorded with -update on the last commit that built pages
// through strings.Builder/fmt (PR 11), so a match proves the append-only
// path draws the same random numbers in the same order and writes the
// same bytes: every golden trace and EXPERIMENTS.md figure rests on
// that. Re-record only when the page format is changed on purpose.
func TestPageBytesDigest(t *testing.T) {
	got := pageBytesDigests(t)
	if *updateDigest {
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("line %d: got %q, recorded %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("got %d lines, recorded %d", len(gl), len(wl))
}

// pageBytesDigests renders every vector as "name fnv64a-hex\n".
func pageBytesDigests(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	line := func(name string, body []byte) {
		h := fnv.New64a()
		h.Write(body)
		fmt.Fprintf(&out, "%s %016x\n", name, h.Sum64())
	}

	var thai *Space
	for _, sp := range []struct {
		name string
		cfg  Config
	}{
		{"thai400.7", ThaiLike(400, 7)},
		{"japanese400.7", JapaneseLike(400, 7)},
	} {
		s, err := Generate(sp.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if thai == nil {
			thai = s
		}
		for id := 0; id < s.N(); id++ {
			line(fmt.Sprintf("%s/%d", sp.name, id), s.PageBytes(PageID(id)))
		}
	}

	// An evolving view pushed through every mutation kind, digested at
	// two instants so edited pages contribute more than one version.
	e := NewEvolver(thai, EvolveConfig{
		Seed: 11, EditRate: 0.02, DeleteRate: 0.002, BirthRate: 0.02,
		DriftRate: 0.004, LatentFraction: 0.2, RateSkew: 1,
	})
	for _, at := range []float64{150, 400} {
		e.AdvanceTo(at)
		for id := 0; id < thai.N(); id++ {
			p := PageID(id)
			line(fmt.Sprintf("evolve@%g/%d/v%d/%s", at, id, e.Version(p), e.Lang(p)), e.PageBytes(p))
		}
	}
	kinds := map[uint8]bool{}
	for _, m := range e.Log {
		kinds[m.Kind] = true
	}
	for _, k := range []uint8{MutEdit, MutDelete, MutBirth, MutDrift} {
		if !kinds[k] {
			t.Fatalf("evolver vectors never exercised mutation kind %v", k)
		}
	}

	// textgen.HTMLPage per charset, with hrefs that need attribute
	// escaping and text the narrow charsets cannot encode (→ '?').
	links := []string{
		"http://a.example/?x=1&y=2",
		`http://b.example/"quoted"`,
		"http://c.example/<tag>",
		"/relative/日本語/ไทย",
		"http://d.example/plain.html",
	}
	for _, v := range []struct {
		lang     charset.Language
		cs, decl charset.Charset
	}{
		{charset.LangJapanese, charset.EUCJP, charset.EUCJP},
		{charset.LangJapanese, charset.ShiftJIS, charset.ShiftJIS},
		{charset.LangJapanese, charset.ISO2022JP, charset.Unknown},
		{charset.LangJapanese, charset.UTF8, charset.ShiftJIS},
		{charset.LangThai, charset.TIS620, charset.TIS620},
		{charset.LangThai, charset.Windows874, charset.Windows874},
		{charset.LangThai, charset.ISO885911, charset.Unknown},
		{charset.LangThai, charset.UTF8, charset.UTF8},
		{charset.LangEnglish, charset.Latin1, charset.Latin1},
		{charset.LangEnglish, charset.ASCII, charset.ASCII},
		{charset.LangJapanese, charset.Latin1, charset.EUCJP},
		{charset.LangThai, charset.ASCII, charset.TIS620},
		{charset.LangThai, charset.EUCJP, charset.Unknown},
		{charset.LangJapanese, charset.TIS620, charset.UTF8},
		{charset.LangEnglish, charset.UTF16LE, charset.UTF16LE},
		{charset.LangJapanese, charset.Unknown, charset.Unknown},
	} {
		for paras := 0; paras <= 7; paras += 7 {
			spec := textgen.PageSpec{Lang: v.lang, Charset: v.cs, DeclaredCharset: v.decl, Links: links, Paragraphs: paras}
			line(fmt.Sprintf("htmlpage/%s/%s/decl=%s/p%d", v.lang, v.cs, v.decl, paras),
				textgen.HTMLPage(spec, rng.New2(42, uint64(v.cs)<<8|uint64(paras))))
		}
	}
	return out.Bytes()
}
