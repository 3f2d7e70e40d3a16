// Package webserve exposes a synthetic web space over real HTTP, so the
// live crawler (internal/crawler) can be exercised end-to-end against
// ground truth without touching the Internet. Each site of the space is
// a virtual host: the handler routes on the request's Host header, which
// a test client reaches by dialing every host to the same listener.
package webserve

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"langcrawl/internal/hostile"
	"langcrawl/internal/webgraph"
)

// HTTPEpoch anchors the space's virtual clock to wall time for HTTP
// metadata: virtual second t maps to HTTPEpoch + t. Any fixed instant
// works — validators only ever compare against each other — but pinning
// it keeps Last-Modified values reproducible across runs. The date is
// the era of the paper's crawl datasets.
var HTTPEpoch = time.Date(2005, 4, 5, 0, 0, 0, 0, time.UTC)

// Server wraps a Space as an http.Handler.
type Server struct {
	space *webgraph.Space
	// Requests counts pages served (including errors), for test
	// assertions about politeness and fetch volume.
	requests atomic.Int64
	// RobotsDisallow lists path prefixes served as disallowed in every
	// host's robots.txt.
	RobotsDisallow []string
	// Hostile, when non-nil, takes over requests to its adversarial
	// hosts (see internal/hostile), mixing attack behaviors into the
	// benign space. robots.txt stays benign for hostile hosts too — the
	// handler above serves it before the dispatch.
	Hostile *hostile.Model
	// FailFirst, when positive, makes each page URL's first FailFirst
	// requests answer 503 before the page is served — a flaky server for
	// exercising retry logic. robots.txt is exempt.
	FailFirst int
	// FailHost names one virtual host that answers 503 to every page
	// request — a persistently broken server for breaker tests.
	FailHost string
	// Tick, with an evolver installed, advances the virtual clock by
	// this many seconds on every page request, so a live crawl drives
	// the space's evolution deterministically: mutation timing is a
	// function of request count, not of wall time.
	Tick float64

	mu    sync.Mutex
	fails map[string]int // per-URL 503s served so far under FailFirst

	// evMu guards the evolver (concurrent requests mutate its clock).
	evMu   sync.Mutex
	evolve *webgraph.Evolver

	// bodyBytes counts page body bytes actually written (robots.txt and
	// error bodies excluded) — the revalidation tests' transfer meter: a
	// conditional crawl of an unchanged space must keep it at ~0.
	bodyBytes atomic.Int64
}

// New returns a Server for space.
func New(space *webgraph.Space) *Server {
	return &Server{space: space, fails: make(map[string]int)}
}

// Requests returns the number of requests served so far.
func (s *Server) Requests() int64 { return s.requests.Load() }

// BodyBytes returns the page body bytes served so far (304s and
// robots.txt transfer none).
func (s *Server) BodyBytes() int64 { return s.bodyBytes.Load() }

// SetEvolver installs an evolving view over the space: the server then
// serves each page's current version, 404s pages that are unborn or
// deleted, and stamps validators from the evolver's versions. Call
// before serving traffic.
func (s *Server) SetEvolver(e *webgraph.Evolver) { s.evolve = e }

// AdvanceTo moves the evolving space's virtual clock (no-op without an
// evolver). Experiments use it to churn the space between crawl phases.
func (s *Server) AdvanceTo(t float64) {
	if s.evolve == nil {
		return
	}
	s.evMu.Lock()
	s.evolve.AdvanceTo(t)
	s.evMu.Unlock()
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	host := r.Host
	if i := strings.IndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}

	if r.URL.Path == "/robots.txt" {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "User-agent: *")
		for _, p := range s.RobotsDisallow {
			fmt.Fprintf(w, "Disallow: %s\n", p)
		}
		return
	}

	if s.Hostile != nil && s.Hostile.Serve(w, r, host) {
		return
	}

	if s.FailHost != "" && host == s.FailHost {
		http.Error(w, "service unavailable", http.StatusServiceUnavailable)
		return
	}
	if s.FailFirst > 0 {
		key := host + r.URL.Path
		s.mu.Lock()
		n := s.fails[key]
		if n < s.FailFirst {
			s.fails[key] = n + 1
			s.mu.Unlock()
			http.Error(w, "try again", http.StatusServiceUnavailable)
			return
		}
		s.mu.Unlock()
	}

	id, ok := s.space.PageByURL("http://" + host + r.URL.Path)
	if !ok {
		http.NotFound(w, r)
		return
	}
	status := int(s.space.Status[id])
	if status != 200 {
		http.Error(w, http.StatusText(status), status)
		return
	}

	// Resolve the page's current incarnation. A static space serves the
	// snapshot at version 0 — with real validators, so a revalidating
	// crawler gets its 304s there too; an evolving space serves whatever
	// the virtual clock says, 404 included. The validators are checked
	// before the body is built, so a 304 — most of a recrawl sweep —
	// costs no page synthesis; a 200 is built in a pooled buffer, which
	// Write copies out of before it goes back.
	var (
		etag     string
		lastMod  = HTTPEpoch
		cs       = s.space.Charset[id]
		modified bool
	)
	bp := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(bp)
	if s.evolve != nil {
		s.evMu.Lock()
		if s.Tick > 0 {
			s.evolve.AdvanceTo(s.evolve.Now() + s.Tick)
		}
		if !s.evolve.Alive(id) {
			s.evMu.Unlock()
			http.NotFound(w, r)
			return
		}
		etag = s.evolve.ETag(id)
		lastMod = virtualTime(s.evolve.LastModified(id))
		cs = s.evolve.Charset(id)
		if modified = !notModified(r, etag, lastMod); modified {
			*bp = s.evolve.PageBytesAppend((*bp)[:0], id)
		}
		s.evMu.Unlock()
	} else {
		etag = `"` + strconv.FormatUint(uint64(id), 10) + `-0"`
		if modified = !notModified(r, etag, lastMod); modified {
			*bp = s.space.PageBytesAppend((*bp)[:0], id)
		}
	}

	w.Header().Set("ETag", etag)
	w.Header().Set("Last-Modified", lastMod.Format(http.TimeFormat))
	if !modified {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset="+cs.String())
	w.Header().Set("Content-Length", strconv.Itoa(len(*bp)))
	w.WriteHeader(http.StatusOK)
	n, _ := w.Write(*bp)
	s.bodyBytes.Add(int64(n))
}

// bodyPool holds the buffers 200 bodies are synthesized into.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// virtualTime maps a virtual-second stamp to wall time, truncated to
// whole seconds because that is all an HTTP date can carry. Sub-second
// edits may therefore share a Last-Modified — which is exactly why the
// ETag, which never collides across versions, is checked first.
func virtualTime(t float64) time.Time {
	return HTTPEpoch.Add(time.Duration(t * float64(time.Second))).Truncate(time.Second)
}

// notModified applies RFC 9110 conditional-GET precedence: an
// If-None-Match comparison wins outright when the client sent one;
// If-Modified-Since is consulted only in its absence.
func notModified(r *http.Request, etag string, lastMod time.Time) bool {
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		if inm == "*" {
			return true
		}
		for _, cand := range strings.Split(inm, ",") {
			if strings.TrimSpace(cand) == etag {
				return true
			}
		}
		return false
	}
	if ims := r.Header.Get("If-Modified-Since"); ims != "" {
		if t, err := http.ParseTime(ims); err == nil {
			return !lastMod.After(t)
		}
	}
	return false
}
