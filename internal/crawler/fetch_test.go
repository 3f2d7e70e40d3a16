package crawler

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"langcrawl/internal/charset"
	"langcrawl/internal/core"
)

func TestCutParams(t *testing.T) {
	cases := []struct {
		in    string
		want  string
		found bool
	}{
		{"text/html; charset=euc-jp", "euc-jp", true},
		{"text/html; CHARSET=TIS-620", "TIS-620", true},
		{"text/html; charset=utf-8; boundary=x", "utf-8", true},
		{"text/html; charset=utf-8 something", "utf-8", true},
		{"text/html", "", false},
		{"", "", false},
		{"charset=", "", true},
	}
	for _, c := range cases {
		got, found := cutParams(c.in)
		if got != c.want || found != c.found {
			t.Errorf("cutParams(%q) = %q, %v; want %q, %v", c.in, got, found, c.want, c.found)
		}
	}
}

func TestEqualFold(t *testing.T) {
	if !equalFold("CharSet=", "charset=") {
		t.Error("case-insensitive match failed")
	}
	if equalFold("charset", "charset=") {
		t.Error("length mismatch matched")
	}
	if equalFold("charset!", "charset=") {
		t.Error("different bytes matched")
	}
}

// TestFetchAssemblesVisit drives fetch against a handcrafted handler to
// pin header-vs-META precedence and size accounting.
func TestFetchAssemblesVisit(t *testing.T) {
	const body = `<html><head><meta http-equiv="content-type" content="text/html; charset=tis-620"></head>` +
		`<body><a href="/next.html">n</a></body></html>`
	var sendHeaderCharset bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sendHeaderCharset {
			w.Header().Set("Content-Type", "text/html; charset=euc-jp")
		} else {
			w.Header().Set("Content-Type", "text/html")
		}
		w.Write([]byte(body))
	}))
	defer ts.Close()

	c, err := New(Config{
		Seeds:      []string{ts.URL},
		Strategy:   core.BreadthFirst{},
		Classifier: core.MetaClassifier{Target: charset.LangThai},
		Client:     ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Header charset absent: the META declaration wins.
	visit, links, rec, err := c.fetch(context.Background(), ts.URL+"/page.html", nil)
	if err != nil {
		t.Fatal(err)
	}
	if visit.Declared != charset.TIS620 {
		t.Errorf("Declared = %v, want META's TIS-620", visit.Declared)
	}
	if len(links) != 1 || !strings.HasSuffix(links[0], "/next.html") {
		t.Errorf("links = %v", links)
	}
	if rec.Size != uint32(len(body)) {
		t.Errorf("Size = %d, want %d", rec.Size, len(body))
	}

	// Header charset present: it takes precedence over META.
	sendHeaderCharset = true
	visit, _, _, err = c.fetch(context.Background(), ts.URL+"/page.html", nil)
	if err != nil {
		t.Fatal(err)
	}
	if visit.Declared != charset.EUCJP {
		t.Errorf("Declared = %v, want header's EUC-JP", visit.Declared)
	}
}

func TestFetchNoFollowMeta(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		w.Write([]byte(`<meta name="robots" content="nofollow"><a href="/x.html">x</a>`))
	}))
	defer ts.Close()
	c, _ := New(Config{
		Seeds:      []string{ts.URL},
		Strategy:   core.BreadthFirst{},
		Classifier: core.MetaClassifier{Target: charset.LangThai},
		Client:     ts.Client(),
	})
	_, links, rec, err := c.fetch(context.Background(), ts.URL+"/p.html", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 0 || len(rec.Links) != 0 {
		t.Errorf("nofollow page leaked links: %v", links)
	}
}

func TestFetchBodyCap(t *testing.T) {
	big := strings.Repeat("x", 64<<10)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(big))
	}))
	defer ts.Close()
	c, _ := New(Config{
		Seeds:        []string{ts.URL},
		Strategy:     core.BreadthFirst{},
		Classifier:   core.MetaClassifier{Target: charset.LangThai},
		Client:       ts.Client(),
		MaxBodyBytes: 1024,
	})
	visit, _, _, err := c.fetch(context.Background(), ts.URL+"/big.html", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(visit.Body) != 1024 {
		t.Errorf("body = %d bytes, want capped 1024", len(visit.Body))
	}
}
