package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"langcrawl/internal/webgraph"
	"langcrawl/internal/webserve"
)

// recorded is one page as webserve answered it at set-up.
type recorded struct {
	status int
	header http.Header
	body   []byte
}

type pageKey struct{ host, path string }

// replayWeb serves a space from responses rendered once at set-up, so a
// live crawl measures the crawler and not webserve synthesizing page
// text (~126 µs and ~480 allocs per page, more than the crawler itself
// costs).
type replayWeb struct {
	pages map[pageKey]*recorded
	// serveNS is the time webserve's handler took per page while
	// recording: the fixture cost the replay removes.
	serveNS float64
}

// record renders every page of the space through webserve's handler.
func record(space *webgraph.Space) *replayWeb {
	ws := webserve.New(space)
	web := &replayWeb{pages: make(map[pageKey]*recorded, space.N())}
	var spent time.Duration
	for id := 0; id < space.N(); id++ {
		req := httptest.NewRequest(http.MethodGet, space.URL(webgraph.PageID(id)), nil)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		ws.ServeHTTP(rec, req)
		spent += time.Since(t0)
		web.pages[pageKey{req.Host, req.URL.Path}] = &recorded{
			status: rec.Code, header: rec.Header(), body: rec.Body.Bytes(),
		}
	}
	web.serveNS = float64(spent.Nanoseconds()) / float64(space.N())
	return web
}

func (web *replayWeb) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p := web.pages[pageKey{r.Host, r.URL.Path}]
	if p == nil {
		http.NotFound(w, r)
		return
	}
	h := w.Header()
	for k, v := range p.header {
		h[k] = v // shared, never mutated: the server only reads them
	}
	w.WriteHeader(p.status)
	w.Write(p.body) //nolint:errcheck // a client that hung up shows as a crawl error
}

// loopback is a running replay server plus the client that reaches it.
type loopback struct {
	srv    *http.Server
	done   chan struct{} // closed when Serve has returned
	addr   string
	base   *http.Transport
	Client *http.Client
}

// serveLoopback starts handler on a loopback port. The returned client
// sends every virtual host to that one listener over at most conns
// keep-alive connections.
func serveLoopback(handler http.Handler, conns int) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback listen: %w", err)
	}
	lb := &loopback{
		srv:  &http.Server{Handler: handler},
		done: make(chan struct{}),
		addr: ln.Addr().String(),
		base: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
	}
	go func() {
		defer close(lb.done)
		lb.srv.Serve(ln) //nolint:errcheck // always ErrServerClosed after close()
	}()
	lb.Client = &http.Client{Transport: &pinTransport{base: lb.base, addr: lb.addr}}
	return lb, nil
}

// close stops the server and waits for it.
func (lb *loopback) close() {
	lb.base.CloseIdleConnections()
	lb.srv.Close()
	<-lb.done
}

// pinTransport routes every request to one address while the request
// keeps its virtual Host, so all hosts of a space share one connection
// pool and the connection count stays within the worker count.
type pinTransport struct {
	base http.RoundTripper
	addr string
}

func (p *pinTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	pinned := *req // shallow copy: a RoundTripper must not modify the caller's request
	u := *req.URL
	u.Host = p.addr
	pinned.URL = &u
	if pinned.Host == "" {
		pinned.Host = req.URL.Host
	}
	resp, err := p.base.RoundTrip(&pinned)
	if resp != nil {
		resp.Request = req // the crawler reads the virtual host back from here
	}
	return resp, err
}

// checkReplay fetches a spread of n pages from the loopback server and
// compares each with what webserve answers directly. It returns the
// number compared and a description of each difference.
func checkReplay(space *webgraph.Space, client *http.Client, n int) (compared int, diffs []string) {
	ws := webserve.New(space)
	step := max(space.N()/n, 1)
	for id := 0; id < space.N(); id += step {
		url := space.URL(webgraph.PageID(id))
		want := httptest.NewRecorder()
		ws.ServeHTTP(want, httptest.NewRequest(http.MethodGet, url, nil))
		compared++
		resp, err := client.Get(url)
		if err != nil {
			diffs = append(diffs, fmt.Sprintf("%s: %v", url, err))
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
			diffs = append(diffs, fmt.Sprintf("%s: reading body: %v", url, err))
		case resp.StatusCode != want.Code:
			diffs = append(diffs, fmt.Sprintf("%s: status %d, webserve %d", url, resp.StatusCode, want.Code))
		case !bytes.Equal(body, want.Body.Bytes()):
			diffs = append(diffs, fmt.Sprintf("%s: body differs from webserve's", url))
		default:
			for k, v := range want.Header() {
				if got := resp.Header[k]; len(got) != len(v) || (len(v) > 0 && got[0] != v[0]) {
					diffs = append(diffs, fmt.Sprintf("%s: header %s %q, webserve %q", url, k, got, v))
				}
			}
		}
	}
	return compared, diffs
}
