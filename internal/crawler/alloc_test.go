package crawler

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"langcrawl/internal/charset"
	"langcrawl/internal/core"
)

// cannedWeb is a RoundTripper that serves pre-rendered pages from memory,
// so a test crawl measures the crawler rather than a server. Its own cost
// per request is two small allocations (the Response and its body
// reader), the same for every page.
type cannedWeb struct {
	pages  map[string][]byte // URL path → body
	header http.Header       // shared, read-only
	// declared, when positive, is the Content-Length every response
	// claims instead of its real body length.
	declared int64
}

func (w *cannedWeb) RoundTrip(req *http.Request) (*http.Response, error) {
	body, ok := w.pages[req.URL.Path]
	status := http.StatusOK
	if !ok {
		status = http.StatusNotFound
	}
	rb := &cannedBody{}
	rb.Reset(body)
	length := int64(len(body))
	if w.declared > 0 {
		length = w.declared
	}
	return &http.Response{
		StatusCode: status, ProtoMajor: 1, ProtoMinor: 1,
		Header: w.header, ContentLength: length, Body: rb, Request: req,
	}, nil
}

type cannedBody struct{ bytes.Reader }

func (*cannedBody) Close() error { return nil }

// chainWeb renders a crawlable chain of n pages on one host, each about
// size bytes: page i links to pages i+1 and i+2 — new frontier entries —
// and back to page 0, which is already crawled.
func chainWeb(n, size int) *cannedWeb {
	w := &cannedWeb{pages: make(map[string][]byte, n), header: http.Header{"Content-Type": {"text/html"}}}
	for i := 0; i < n; i++ {
		var b strings.Builder
		b.WriteString(`<html><head><meta charset="tis-620"><title>chain</title></head><body>`)
		for _, j := range []int{i + 1, i + 2, 0} {
			if j < n {
				fmt.Fprintf(&b, `<a href="http://chain.test/p/%d">next</a>`, j)
			}
		}
		for b.Len() < size-len("</body></html>") {
			b.WriteString("\xa1\xa2\xa3 ")
		}
		b.WriteString("</body></html>")
		w.pages[fmt.Sprintf("/p/%d", i)] = []byte(b.String())
	}
	return w
}

// chainCrawl crawls w from page 0 on one worker with default
// settings (deadline and stall watchdog on) and reports pages crawled.
func chainCrawl(t *testing.T, w *cannedWeb) int {
	c, err := New(Config{
		Seeds:        []string{"http://chain.test/p/0"},
		Strategy:     core.BreadthFirst{},
		Classifier:   core.HybridClassifier{Target: charset.LangThai},
		Client:       &http.Client{Transport: w},
		IgnoreRobots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res.Crawled
}

// perPage is the marginal cost of one more page: a crawl of 2n pages
// minus a crawl of n, divided by n, so per-crawl set-up (including the
// first body buffer) cancels out.
func perPage(t *testing.T, n, size int, measure func(func()) float64) float64 {
	return perPageDeclared(t, n, size, 0, measure)
}

// perPageDeclared is perPage over responses that claim a Content-Length
// of declared bytes (0: the true length).
func perPageDeclared(t *testing.T, n, size int, declared int64, measure func(func()) float64) float64 {
	small, large := chainWeb(n, size), chainWeb(2*n, size)
	small.declared, large.declared = declared, declared
	if got := chainCrawl(t, large); got != 2*n {
		t.Fatalf("chain crawl fetched %d pages, want %d", got, 2*n)
	}
	return (measure(func() { chainCrawl(t, large) }) - measure(func() { chainCrawl(t, small) })) / float64(n)
}

// maxFetchAllocs pins what one page of a one-worker crawl allocates once the
// pools are warm, counted against a canned transport: the page request
// and its URL; net/http's client bookkeeping (header copy for redirects,
// cancel plumbing); the request deadline and stall watchdog; the visit
// and log record (one allocation); the page's links (one string and one
// slice) and a copy of each link entering the frontier; and amortized
// growth of the frontier, seen set, harvest series and transport state.
// The body buffer, parse pipeline, detector and encode scratch are all
// reused.
const maxFetchAllocs = 28

func TestFetchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	allocs := perPage(t, 128, 2<<10, func(f func()) float64 { return testing.AllocsPerRun(3, f) })
	t.Logf("%.2f allocations per page", allocs)
	if allocs > maxFetchAllocs {
		t.Errorf("one page allocates %.2f times, want <= %d", allocs, maxFetchAllocs)
	}
}

// TestFetchBytesFlat: the bytes a page allocates do not depend on its
// size. A 48 KiB body is read into the same pooled buffer as a 1 KiB one,
// so the per-page allocation of the two crawls differs only by noise
// (sync.Pool refills after a GC), not by the 47 KiB an unpooled read
// would add.
func TestFetchBytesFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not meaningful under -race")
	}
	totalAlloc := func(f func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	small := perPage(t, 128, 1<<10, totalAlloc)
	large := perPage(t, 128, 48<<10, totalAlloc)
	lying := perPageDeclared(t, 128, 1<<10, 1<<30, totalAlloc)
	t.Logf("per page: %.0f B at 1 KiB bodies, %.0f B at 48 KiB, %.0f B at 1 KiB declaring 1 GiB", small, large, lying)
	if d := large - small; d > 512 || d < -512 {
		t.Errorf("per-page allocation moves %.0f B between 1 KiB and 48 KiB bodies, want within 512 B", d)
	}
	// A Content-Length far above what arrives must not size the buffer.
	if d := lying - small; d > 512 || d < -512 {
		t.Errorf("per-page allocation moves %.0f B when 1 KiB bodies declare 1 GiB, want within 512 B", d)
	}
}
