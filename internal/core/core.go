// Package core implements the paper's primary contribution: language-
// specific web crawling. It contains the page-relevance classifiers of
// §3.2 (META-charset check and byte-distribution charset detection) and
// the priority-assignment strategies of §3.3 (the simple strategy in
// hard- and soft-focused modes, and the limited-distance strategy in
// non-prioritized and prioritized modes), plus the breadth-first
// baseline and a context-layer tunneling strategy from the related work
// (§2.2).
//
// The package is deliberately engine-agnostic: a Classifier scores a
// Visit, a Strategy turns (relevance score, crawl-path distance) into an
// enqueue decision. The same implementations drive both the trace-driven
// simulator (internal/sim) and the live HTTP crawler (internal/crawler).
package core

import (
	"fmt"
	"strings"

	"langcrawl/internal/charset"
	"langcrawl/internal/frontier"
)

// Visit is the engine-provided record of one fetched page — everything a
// classifier may look at.
type Visit struct {
	// URL of the fetched page ("" in high-throughput simulation runs,
	// where classifiers must not depend on it).
	URL string
	// Status is the HTTP status code.
	Status int
	// Declared is the charset claimed by the page's META tag (or the
	// HTTP Content-Type header), charset.Unknown when absent.
	Declared charset.Charset
	// TrueCharset is the ground-truth encoding, available in trace-driven
	// simulation only (the oracle classifier uses it; honest classifiers
	// must not).
	TrueCharset charset.Charset
	// Body is the raw page bytes. The engine populates it only when the
	// classifier's NeedsBody reports true, because regenerating or
	// fetching bodies dominates simulation cost.
	//
	// Ownership: Body may alias an engine-owned buffer that is reused for
	// the next page — the simulator's page-synthesis buffer, or the live
	// crawler's pooled fetch buffer, which goes back to its pool once the
	// page is classified. Classifiers must consume it synchronously inside
	// Score and must not retain the slice past the call; anything that
	// needs the bytes later copies them.
	Body []byte
	// Truncated marks a body cut short (the fetch hit the engine's size
	// cap, or a fault model truncated the transfer). Detector-style
	// classifiers relax confidence floors on truncated bodies — the
	// partial evidence is the page's fault, not the language's.
	Truncated bool

	// Detection memo: the first consumer to need a byte-level charset
	// verdict runs the detector once and every later consumer (engine
	// bookkeeping, other classifiers in an AnyOf) reuses it. The zero
	// value means "not yet detected"; engines that build a fresh Visit
	// per page get the reset for free.
	detected charset.Result
	detInfo  charset.ScanInfo
	detDone  bool
}

// Detected returns the charset detector's verdict on Body, running the
// detector on first use and memoizing the result so every consumer of
// this visit shares a single detection pass.
func (v *Visit) Detected() charset.Result {
	if !v.detDone {
		v.detected, v.detInfo = charset.DetectInfo(v.Body)
		v.detDone = true
	}
	return v.detected
}

// DetectionInfo returns the ScanInfo of the memoized detection pass and
// whether a pass has run for this visit at all.
func (v *Visit) DetectionInfo() (charset.ScanInfo, bool) {
	return v.detInfo, v.detDone
}

// SetDetected primes the memo with an already-computed detection result,
// for engines that detect while fetching (parse-codec selection, true-
// charset recording) and want classifiers to reuse that pass.
func (v *Visit) SetDetected(r charset.Result, info charset.ScanInfo) {
	v.detected, v.detInfo, v.detDone = r, info, true
}

// Classifier judges the relevance of a visited page to the target
// language, returning a score in [0,1]. The paper's classifiers are
// binary: 1 if the page's charset maps to the target language, else 0.
//
// Both engines score pages off their crawl loop: the live crawler's
// workers score outside the engine lock, and the simulator's helpers
// score pages before the loop visits them (internal/sim). So Score must
// be safe for concurrent use, and it may read only the Visit it is
// handed: the score is a function of the visit alone. That contract is
// what makes both moves observation-equivalent.
type Classifier interface {
	// Name identifies the classifier in results and logs.
	Name() string
	// NeedsBody reports whether Score reads Visit.Body.
	NeedsBody() bool
	// Score returns the page's relevance to the target language. It is
	// called concurrently and reads only v.
	Score(v *Visit) float64
}

// MetaClassifier implements §3.2's first method: trust the charset
// declared in the HTML META tag. This is what the paper uses for the
// Thai dataset (the Mozilla detector of the day had no Thai support).
// Pages with a missing or mislabeled META are scored 0 — the exact
// false-negative source the paper's observation 3 describes.
type MetaClassifier struct {
	// Target is the language being crawled for.
	Target charset.Language
}

// Name implements Classifier.
func (c MetaClassifier) Name() string { return "meta/" + c.Target.String() }

// NeedsBody implements Classifier; the META charset arrives pre-parsed.
func (c MetaClassifier) NeedsBody() bool { return false }

// Score implements Classifier.
func (c MetaClassifier) Score(v *Visit) float64 {
	if v.Status != 200 {
		return 0
	}
	if charset.LanguageOf(v.Declared) == c.Target {
		return 1
	}
	return 0
}

// DetectorClassifier implements §3.2's second method: run a composite
// charset detector over the page bytes. This is what the paper uses for
// the Japanese dataset. MinConfidence guards against low-evidence
// guesses; 0 accepts any winning prober.
type DetectorClassifier struct {
	Target        charset.Language
	MinConfidence float64
}

// Name implements Classifier.
func (c DetectorClassifier) Name() string { return "detector/" + c.Target.String() }

// NeedsBody implements Classifier.
func (c DetectorClassifier) NeedsBody() bool { return true }

// Score implements Classifier.
func (c DetectorClassifier) Score(v *Visit) float64 {
	if v.Status != 200 || len(v.Body) == 0 {
		return 0
	}
	r := v.Detected()
	if r.Language == c.Target && (v.Truncated || r.Confidence >= c.MinConfidence) {
		return 1
	}
	return 0
}

// HybridClassifier checks the META declaration first and falls back to
// byte-level detection when META is absent — an extension over the
// paper that recovers the unlabeled pages observation 3 worries about
// while keeping body regeneration off the common path.
type HybridClassifier struct {
	Target charset.Language
}

// Name implements Classifier.
func (c HybridClassifier) Name() string { return "hybrid/" + c.Target.String() }

// NeedsBody implements Classifier. The engine cannot know in advance
// whether META will be present, so bodies are always requested.
func (c HybridClassifier) NeedsBody() bool { return true }

// Score implements Classifier.
func (c HybridClassifier) Score(v *Visit) float64 {
	if v.Status != 200 {
		return 0
	}
	if v.Declared != charset.Unknown {
		if charset.LanguageOf(v.Declared) == c.Target {
			return 1
		}
		// A declared non-target charset may still be a mislabel; fall
		// through to detection only when bytes are available.
	}
	if len(v.Body) == 0 {
		return 0
	}
	if r := v.Detected(); r.Language == c.Target {
		return 1
	}
	return 0
}

// OracleClassifier scores from the ground-truth charset recorded in the
// trace. It bounds what any classifier could achieve and is used by
// ablation experiments, never by headline runs.
type OracleClassifier struct {
	Target charset.Language
}

// Name implements Classifier.
func (c OracleClassifier) Name() string { return "oracle/" + c.Target.String() }

// NeedsBody implements Classifier.
func (c OracleClassifier) NeedsBody() bool { return false }

// Score implements Classifier.
func (c OracleClassifier) Score(v *Visit) float64 {
	if v.Status != 200 {
		return 0
	}
	if charset.LanguageOf(v.TrueCharset) == c.Target {
		return 1
	}
	return 0
}

// AnyOf composes classifiers: a page is relevant if any child classifier
// scores it relevant (the score is the children's maximum). National
// archives routinely target several languages at once — e.g. a Thai
// archive also collecting the Lao and English pages of .th sites — and
// AnyOf expresses that without touching the strategies.
func AnyOf(children ...Classifier) Classifier {
	return anyOf{children: children}
}

type anyOf struct {
	children []Classifier
}

// Name implements Classifier.
func (a anyOf) Name() string {
	parts := make([]string, len(a.children))
	for i, c := range a.children {
		parts[i] = c.Name()
	}
	return "any(" + strings.Join(parts, "|") + ")"
}

// NeedsBody implements Classifier: true if any child reads bodies.
func (a anyOf) NeedsBody() bool {
	for _, c := range a.children {
		if c.NeedsBody() {
			return true
		}
	}
	return false
}

// Score implements Classifier.
func (a anyOf) Score(v *Visit) float64 {
	best := 0.0
	for _, c := range a.children {
		if s := c.Score(v); s > best {
			best = s
			if best >= 1 {
				break
			}
		}
	}
	return best
}

// Decision is a strategy's verdict for the outlinks of one visited page.
type Decision struct {
	// Follow indicates the outlinks should be enqueued at all; false
	// discards them (the hard-focused and limited-distance cutoffs).
	Follow bool
	// Priority is the frontier priority for the enqueued links; higher
	// pops first.
	Priority float64
	// Dist is the crawl-path distance state to attach to the enqueued
	// links: the number of consecutive irrelevant pages between them and
	// the latest relevant page on their path.
	Dist int
}

// Strategy is a priority-assignment policy (§3.3): it maps the relevance
// score of a visited page and that page's own distance state to an
// enqueue decision for the page's outlinks.
type Strategy interface {
	// Name identifies the strategy in results and logs.
	Name() string
	// QueueKind selects the frontier implementation the strategy needs.
	QueueKind() frontier.Kind
	// Decide returns the enqueue decision for the outlinks of a page
	// with the given relevance score and distance state.
	Decide(score float64, dist int) Decision
}

// relevant is the binary cut on the paper's 0/1 scores.
const relevanceThreshold = 0.5

// BreadthFirst is the baseline: enqueue everything, FIFO order,
// relevance ignored.
type BreadthFirst struct{}

// Name implements Strategy.
func (BreadthFirst) Name() string { return "breadth-first" }

// QueueKind implements Strategy.
func (BreadthFirst) QueueKind() frontier.Kind { return frontier.KindFIFO }

// Decide implements Strategy.
func (BreadthFirst) Decide(score float64, dist int) Decision {
	return Decision{Follow: true}
}

// HardFocused is the simple strategy's hard mode (Table 2, row 1):
// follow links only from relevant pages, discard the rest.
type HardFocused struct{}

// Name implements Strategy.
func (HardFocused) Name() string { return "hard-focused" }

// QueueKind implements Strategy.
func (HardFocused) QueueKind() frontier.Kind { return frontier.KindFIFO }

// Decide implements Strategy.
func (HardFocused) Decide(score float64, dist int) Decision {
	return Decision{Follow: score >= relevanceThreshold}
}

// SoftFocused is the simple strategy's soft mode (Table 2, row 2): never
// discard, but links from relevant referrers get high priority and links
// from irrelevant referrers get low priority.
type SoftFocused struct{}

// Name implements Strategy.
func (SoftFocused) Name() string { return "soft-focused" }

// QueueKind implements Strategy; two priority classes want the bucket
// queue.
func (SoftFocused) QueueKind() frontier.Kind { return frontier.KindBucket }

// Decide implements Strategy.
func (SoftFocused) Decide(score float64, dist int) Decision {
	if score >= relevanceThreshold {
		return Decision{Follow: true, Priority: 1}
	}
	return Decision{Follow: true, Priority: 0}
}

// LimitedDistance is §3.3.2: the crawler may proceed through at most N
// consecutive irrelevant pages on a path (the paper's Figure 1: with
// N=2 the crawler visits irrelevant pages n=1 and n=2 and stops). A
// link's distance state d counts the consecutive irrelevant pages on
// its path up to and including its referrer: 0 when the referrer was
// relevant, else referrer.d+1. Links with d ≥ N are discarded — the
// linked page, if irrelevant, would be consecutive irrelevant page
// number d+1 > N.
//
// Prioritized selects the paper's two modes: false gives every surviving
// link equal priority (non-prioritized — queue compact but harvest falls
// as N grows); true prioritizes by closeness to the latest relevant page
// (priority -d), which the paper shows removes the harvest penalty.
type LimitedDistance struct {
	N           int
	Prioritized bool
}

// Name implements Strategy.
func (s LimitedDistance) Name() string {
	if s.Prioritized {
		return fmt.Sprintf("prior-limited-distance(N=%d)", s.N)
	}
	return fmt.Sprintf("limited-distance(N=%d)", s.N)
}

// QueueKind implements Strategy.
func (s LimitedDistance) QueueKind() frontier.Kind {
	if s.Prioritized {
		return frontier.KindBucket
	}
	return frontier.KindFIFO
}

// Decide implements Strategy.
func (s LimitedDistance) Decide(score float64, dist int) Decision {
	d := dist + 1
	if score >= relevanceThreshold {
		d = 0
	}
	if d >= s.N {
		return Decision{Follow: false}
	}
	dec := Decision{Follow: true, Dist: d}
	if s.Prioritized {
		dec.Priority = -float64(d)
	}
	return dec
}

// DecayingBestFirst is a continuous-priority tunneling strategy in the
// shark-search tradition: links inherit a priority that decays
// geometrically with distance from the latest relevant page (decay^d),
// and nothing is ever discarded. Unlike the bucket-class strategies it
// needs a real priority heap; it exists both as a "wider range of
// strategies" extension (the paper's future work) and as the natural
// best-first baseline between soft-focused (two classes) and
// prioritized limited distance (distance classes with a cutoff).
type DecayingBestFirst struct {
	// Decay in (0,1); values outside default to 0.5.
	Decay float64
}

func (s DecayingBestFirst) decay() float64 {
	if s.Decay <= 0 || s.Decay >= 1 {
		return 0.5
	}
	return s.Decay
}

// Name implements Strategy.
func (s DecayingBestFirst) Name() string {
	return fmt.Sprintf("best-first(decay=%.2f)", s.decay())
}

// QueueKind implements Strategy: continuous priorities need the heap.
func (s DecayingBestFirst) QueueKind() frontier.Kind { return frontier.KindHeap }

// Decide implements Strategy.
func (s DecayingBestFirst) Decide(score float64, dist int) Decision {
	d := dist + 1
	if score >= relevanceThreshold {
		d = 0
	}
	prio := 1.0
	for i := 0; i < d && prio > 1e-12; i++ {
		prio *= s.decay()
	}
	return Decision{Follow: true, Priority: prio, Dist: d}
}

// ContextLayers is the §2.2 tunneling baseline in this framework: one
// queue per distance layer up to Layers, served nearest non-empty
// layer first, with no discard cutoff at all (links beyond the last
// layer pool in the outermost one). It is prioritized limited distance
// with N = ∞ and a bounded layer alphabet.
type ContextLayers struct {
	Layers int
}

// Name implements Strategy.
func (s ContextLayers) Name() string { return fmt.Sprintf("context-layers(L=%d)", s.Layers) }

// QueueKind implements Strategy.
func (s ContextLayers) QueueKind() frontier.Kind { return frontier.KindBucket }

// Decide implements Strategy.
func (s ContextLayers) Decide(score float64, dist int) Decision {
	d := dist + 1
	if score >= relevanceThreshold {
		d = 0
	}
	layer := d
	if layer > s.Layers {
		layer = s.Layers
	}
	return Decision{Follow: true, Priority: -float64(layer), Dist: d}
}
