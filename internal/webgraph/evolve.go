package webgraph

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"langcrawl/internal/charset"
	"langcrawl/internal/rng"
	"langcrawl/internal/simtime"
)

// EvolveConfig parameterizes the change processes that turn a static
// Space into an evolving web. All rates are expected events per page
// per virtual second, drawn as independent Poisson processes (i.i.d.
// exponential inter-arrival times) per page; the zero value disables
// every process, making the Evolver an exact no-op over the snapshot —
// the property the zero-churn conformance test pins.
type EvolveConfig struct {
	// Seed feeds every stream; the whole evolution schedule is a pure
	// function of (Space, Seed, config), which is what makes churny runs
	// reproducible and kill-resume equivalent.
	Seed uint64
	// EditRate is the per-page rate of content edits (version bumps).
	EditRate float64
	// DeleteRate is the per-page rate of permanent deletion: a deleted
	// page serves 404 forever after.
	DeleteRate float64
	// BirthRate is the per-page birth rate of latent pages (see
	// LatentFraction); an unborn page serves 404 until it is born.
	BirthRate float64
	// DriftRate is the per-page rate of language drift: a relevant page
	// flips to English, an irrelevant one to the space's target language.
	// Drifted bodies are regenerated in UTF-8, which encodes any text.
	DriftRate float64
	// LatentFraction is the fraction of evolvable pages that start
	// unborn, to be created during the crawl at BirthRate. Seeds and
	// non-OK pages never go latent.
	LatentFraction float64
	// RateSkew spreads per-page rates log-normally (sigma = RateSkew, so
	// 0 gives every page the same rates): real webs mix news-like pages
	// that churn daily with archive pages that never change.
	RateSkew float64
}

// Enabled reports whether any change process is active.
func (c EvolveConfig) Enabled() bool {
	return c.EditRate > 0 || c.DeleteRate > 0 || c.BirthRate > 0 ||
		c.DriftRate > 0 || c.LatentFraction > 0
}

// NewsChurn is the fast-churn preset of the abl-recrawl experiment: a
// news-like space where most pages edit several times over a crawl's
// horizon, a noticeable fraction starts unborn, and deletions are
// routine.
func NewsChurn(seed uint64) EvolveConfig {
	return EvolveConfig{
		Seed:           seed,
		EditRate:       0.02,
		DeleteRate:     0.001,
		BirthRate:      0.01,
		DriftRate:      0.0005,
		LatentFraction: 0.15,
		RateSkew:       1.0,
	}
}

// ArchiveChurn is the slow-churn preset: an archive-like space where
// the typical page survives a crawl unchanged and churn concentrates in
// a skewed minority.
func ArchiveChurn(seed uint64) EvolveConfig {
	return EvolveConfig{
		Seed:           seed,
		EditRate:       0.002,
		DeleteRate:     0.0001,
		BirthRate:      0.002,
		DriftRate:      0.0001,
		LatentFraction: 0.05,
		RateSkew:       0.5,
	}
}

// ParseEvolveSpec parses a CLI evolution spec: the preset names "news"
// and "archive", or a comma-separated key=value list with keys edit,
// delete, birth, drift, latent, skew, seed (e.g.
// "edit=0.01,latent=0.2,seed=9"). defaultSeed seeds the processes when
// the spec does not carry its own seed.
func ParseEvolveSpec(spec string, defaultSeed uint64) (EvolveConfig, error) {
	switch spec {
	case "news":
		return NewsChurn(defaultSeed), nil
	case "archive":
		return ArchiveChurn(defaultSeed), nil
	}
	cfg := EvolveConfig{Seed: defaultSeed}
	for _, kv := range strings.Split(spec, ",") {
		key, val, found := strings.Cut(strings.TrimSpace(kv), "=")
		if !found {
			return cfg, fmt.Errorf("webgraph: evolve spec %q: want preset name or key=value list", spec)
		}
		if key == "seed" {
			s, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return cfg, fmt.Errorf("webgraph: evolve spec seed %q: %v", val, err)
			}
			cfg.Seed = s
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f < 0 {
			return cfg, fmt.Errorf("webgraph: evolve spec %s=%q: want a non-negative number", key, val)
		}
		switch key {
		case "edit":
			cfg.EditRate = f
		case "delete":
			cfg.DeleteRate = f
		case "birth":
			cfg.BirthRate = f
		case "drift":
			cfg.DriftRate = f
		case "latent":
			cfg.LatentFraction = f
		case "skew":
			cfg.RateSkew = f
		default:
			return cfg, fmt.Errorf("webgraph: evolve spec has unknown key %q", key)
		}
	}
	return cfg, nil
}

// Mutation kinds, in the order their streams are salted.
const (
	MutBirth uint8 = iota
	MutEdit
	MutDrift
	MutDelete
)

// Mutation is one applied change, kept in the Evolver's log so tests
// and experiments can compare whole schedules across runs.
type Mutation struct {
	At      float64
	ID      PageID
	Kind    uint8
	Version uint32
}

// page state flags.
const (
	stUnborn uint8 = 1 << iota
	stDead
)

// per-kind stream salts (arbitrary odd constants).
var kindSalt = [4]uint64{0xB1127D, 0xED17ED, 0xD21F7, 0xDE1E7E}

// Evolver overlays deterministic change processes on an immutable
// Space. It owns the evolving view — current version, language,
// liveness and last-modified instant per page — and advances it by
// applying scheduled mutation events up to a virtual time. The whole
// trajectory is a pure function of (Space, EvolveConfig): two evolvers
// with the same inputs advanced to the same instant agree byte for
// byte, however the advances were split, and a kill-resume run restores
// the exact view by re-advancing a fresh Evolver to the persisted time.
//
// An Evolver is not safe for concurrent use; webserve guards its
// evolver with a mutex.
type Evolver struct {
	Space *Space
	// Log records every applied mutation in fire order.
	Log []Mutation

	cfg     EvolveConfig
	now     float64
	version []uint32
	modAt   []float64
	lang    []charset.Language
	state   []uint8
	skew    []float64
	drawn   [4][]uint32
	eq      *simtime.EventQueue[pageEvent]
	isSeed  map[PageID]bool
}

type pageEvent struct {
	id   PageID
	kind uint8
}

// NewEvolver builds the evolving view at virtual time 0: latent pages
// selected, every active process's first event scheduled. A zero cfg
// yields a no-op evolver whose view is the snapshot itself.
func NewEvolver(s *Space, cfg EvolveConfig) *Evolver {
	n := s.N()
	e := &Evolver{
		Space:   s,
		cfg:     cfg,
		version: make([]uint32, n),
		modAt:   make([]float64, n),
		lang:    append([]charset.Language(nil), s.Lang...),
		state:   make([]uint8, n),
		skew:    make([]float64, n),
		eq:      simtime.NewEventQueue[pageEvent](),
		isSeed:  make(map[PageID]bool, len(s.Seeds)),
	}
	for k := range e.drawn {
		e.drawn[k] = make([]uint32, n)
	}
	for _, sd := range s.Seeds {
		e.isSeed[sd] = true
	}
	if !cfg.Enabled() {
		return e
	}
	latent := rng.New2(cfg.Seed^0x1A7E17, 0)
	for id := 0; id < n; id++ {
		p := PageID(id)
		e.skew[id] = 1
		if cfg.RateSkew > 0 {
			e.skew[id] = rng.New2(cfg.Seed^0x5CE11, uint64(id)).LogNormal(0, cfg.RateSkew)
		}
		if !s.IsOK(p) {
			continue // non-OK pages have no copy to evolve
		}
		if !e.isSeed[p] && cfg.LatentFraction > 0 && latent.Float64() < cfg.LatentFraction {
			e.state[id] |= stUnborn
			e.scheduleNext(p, MutBirth, cfg.BirthRate, 0)
			continue
		}
		e.scheduleLife(p, 0)
	}
	return e
}

// scheduleLife arms a born page's edit/drift/delete processes from t0.
// Seeds never die: the crawl's entry points must survive, and the
// zero-churn equivalence argument needs them reachable.
func (e *Evolver) scheduleLife(id PageID, t0 float64) {
	e.scheduleNext(id, MutEdit, e.cfg.EditRate, t0)
	e.scheduleNext(id, MutDrift, e.cfg.DriftRate, t0)
	if !e.isSeed[id] {
		e.scheduleNext(id, MutDelete, e.cfg.DeleteRate, t0)
	}
}

// scheduleNext draws the process's next exponential gap and enqueues
// the event. Each draw comes from a fresh RNG keyed by (seed, kind, id,
// draw index), so the schedule is independent of event interleaving.
func (e *Evolver) scheduleNext(id PageID, kind uint8, rate float64, t0 float64) {
	if rate <= 0 {
		return
	}
	k := e.drawn[kind][id]
	e.drawn[kind][id] = k + 1
	u := rng.New2(e.cfg.Seed^kindSalt[kind], uint64(id)<<32|uint64(k)).Float64()
	gap := -math.Log(1-u) / (rate * e.skew[id])
	e.eq.Schedule(t0+gap, pageEvent{id: id, kind: kind})
}

// AdvanceTo applies every mutation scheduled at or before t and moves
// the clock there. Time only moves forward; an earlier t is a no-op.
func (e *Evolver) AdvanceTo(t float64) {
	if t <= e.now {
		return
	}
	for {
		ev, ok := e.eq.Peek()
		if !ok || ev.At > t {
			break
		}
		e.eq.Next()
		e.apply(ev.At, ev.Payload)
	}
	e.now = t
}

func (e *Evolver) apply(at float64, pe pageEvent) {
	id := pe.id
	if e.state[id]&stDead != 0 {
		return // deletion is terminal; late events for the page are void
	}
	switch pe.kind {
	case MutBirth:
		if e.state[id]&stUnborn == 0 {
			return
		}
		e.state[id] &^= stUnborn
		e.modAt[id] = at
		e.scheduleLife(id, at)
	case MutEdit:
		e.scheduleNext(id, MutEdit, e.cfg.EditRate, at)
		if e.state[id]&stUnborn != 0 {
			return
		}
		e.version[id]++
		e.modAt[id] = at
	case MutDrift:
		e.scheduleNext(id, MutDrift, e.cfg.DriftRate, at)
		if e.state[id]&stUnborn != 0 {
			return
		}
		if e.lang[id] == e.Space.Target {
			e.lang[id] = charset.LangEnglish
		} else {
			e.lang[id] = e.Space.Target
		}
		e.version[id]++
		e.modAt[id] = at
	case MutDelete:
		if e.state[id]&stUnborn != 0 {
			return
		}
		e.state[id] |= stDead
		e.modAt[id] = at
	default:
		return
	}
	e.Log = append(e.Log, Mutation{At: at, ID: id, Kind: pe.kind, Version: e.version[id]})
}

// Now returns the evolver's virtual clock.
func (e *Evolver) Now() float64 { return e.now }

// Alive reports whether page id currently serves 200: an OK snapshot
// page that has been born and not deleted.
func (e *Evolver) Alive(id PageID) bool {
	return e.Space.IsOK(id) && e.state[id]&(stUnborn|stDead) == 0
}

// Version returns page id's content version (0 = the snapshot body).
func (e *Evolver) Version(id PageID) uint32 { return e.version[id] }

// Lang returns page id's current language (drift included).
func (e *Evolver) Lang(id PageID) charset.Language { return e.lang[id] }

// IsRelevant reports whether page id is currently in the target
// language — the ground truth freshness metrics compare against.
func (e *Evolver) IsRelevant(id PageID) bool { return e.lang[id] == e.Space.Target }

// LastModified returns the virtual instant of page id's last mutation
// (0 = untouched since the snapshot).
func (e *Evolver) LastModified(id PageID) float64 { return e.modAt[id] }

// Charset returns the encoding page id's current body is written in:
// the snapshot charset until the page drifts, UTF-8 after.
func (e *Evolver) Charset(id PageID) charset.Charset {
	if e.lang[id] != e.Space.Lang[id] {
		return charset.UTF8
	}
	return e.Space.Charset[id]
}

// ETag returns the strong validator webserve hands out for page id's
// current body. It is a pure function of (id, version), so a
// revalidation after a kill-resume still matches.
func (e *Evolver) ETag(id PageID) string {
	return `"` + strconv.FormatUint(uint64(id), 10) + "-" + strconv.FormatUint(uint64(e.version[id]), 10) + `"`
}

// PageBytes regenerates page id's current body; see PageBytesAppend.
func (e *Evolver) PageBytes(id PageID) []byte { return e.PageBytesAppend(nil, id) }

// PageBytesAppend appends page id's current body: for version 0 with
// no drift, byte-identical to Space.PageBytesAppend; edited versions
// regenerate from a version-salted stream (same structure and links,
// different text), and drifted pages switch to UTF-8 so the new
// language always encodes.
func (e *Evolver) PageBytesAppend(dst []byte, id PageID) []byte {
	s := e.Space
	cs, decl := s.Charset[id], s.Declared[id]
	if e.lang[id] != s.Lang[id] {
		cs, decl = charset.UTF8, charset.UTF8
	}
	return s.appendPage(dst, id, e.lang[id], cs, decl, e.version[id])
}
