package charset

import (
	"io"
	"sync"
	"sync/atomic"
)

// Result is the outcome of charset detection.
type Result struct {
	Charset    Charset
	Language   Language
	Confidence float64 // in [0,1]; 0 means "no idea"
}

// ScanInfo describes how a detection pass consumed its input — the raw
// material for the crawler's detect telemetry.
type ScanInfo struct {
	Scanned   int64 // bytes actually fed to the probers
	EarlyExit bool  // detection concluded before the input ran out
	PoolHit   bool  // the detector was reused from the pool
}

const (
	// checkWindow is the stride, in absolute stream offset, at which the
	// scanner re-evaluates its early-exit conditions. Checks fire only at
	// offset-aligned boundaries, so Detect and DetectReader make the same
	// decisions at the same offsets no matter how the input is chunked.
	checkWindow = 1024

	// earlyExitConfidence and stableWindows define the confidence-stable
	// exit: when the same charset leads with at least this confidence at
	// stableWindows consecutive window checks, the verdict is locked in
	// and the rest of the input is skipped. The threshold is deliberately
	// high: only a decisive, stable leader short-circuits, while
	// low-evidence streams (the Latin-1 fallback caps at ~0.3, sparse or
	// mixed text hovers lower still) are always scanned to the end
	// rather than cut off mid-deliberation.
	earlyExitConfidence = 0.85
	stableWindows       = 2
)

// Detector analyzes byte streams and guesses their character encoding,
// following the composite approach of the Mozilla Universal Charset
// Detector: an escape-sequence prober, coding-scheme validity state
// machines, and character/byte distribution analysis, arbitrated by
// confidence. A Detector is reusable via Reset but not safe for
// concurrent use; Detect is the convenient one-shot entry point.
//
// Feeding is windowed: each window is walked once by each live state
// machine and once by the byte statistics; machines that rule their
// charset out stop reading, a foundIt verdict (escape sequence or
// byte-order mark) stops the scan immediately, and a confidence-stable
// leader ends it at the next window boundary. Once Done reports true,
// further input is ignored.
type Detector struct {
	bom   bomProber
	esc   escProber
	utf8  utf8Prober
	eucjp eucJPProber
	sjis  sjisProber
	stats byteStats // the Thai, ASCII and Latin-1 evidence

	done      bool    // conclusive verdict reached; input is ignored
	scanned   int64   // bytes fed to probers since Reset
	nextCheck int64   // absolute offset of the next early-exit check
	leader    Charset // leading charset at the last window check
	leaderRun int     // consecutive checks the leader held ≥ threshold

	fresh   bool // set only by the pool constructor, cleared on first Get
	poolHit bool // this acquisition reused a pooled detector

	buf [8192]byte // read buffer for DetectReader, pooled with the detector
}

// NewDetector returns a fresh Detector.
func NewDetector() *Detector {
	d := &Detector{}
	d.Reset()
	return d
}

// Reset prepares the detector for a new input stream.
func (d *Detector) Reset() {
	d.bom, d.esc, d.utf8, d.eucjp, d.sjis = bomProber{}, escProber{}, utf8Prober{}, eucJPProber{}, sjisProber{}
	d.stats = byteStats{}
	d.done = false
	d.scanned = 0
	d.nextCheck = checkWindow
	d.leader = Unknown
	d.leaderRun = 0
}

// Done reports whether the detector has reached a conclusive verdict;
// once true, further Feed calls are no-ops and a streaming caller
// should stop reading input.
func (d *Detector) Done() bool { return d.done }

// Scanned returns the number of bytes fed to the probers since Reset.
func (d *Detector) Scanned() int64 { return d.scanned }

// Feed passes the next chunk of the stream to the probers, splitting it
// at window boundaries so early-exit checks fire at fixed absolute
// offsets. Feed after a conclusive identification is free.
func (d *Detector) Feed(b []byte) {
	for len(b) > 0 && !d.done {
		n := int64(len(b))
		if rem := d.nextCheck - d.scanned; rem < n {
			n = rem
		}
		d.feedWindow(b[:n])
		d.scanned += n
		b = b[n:]
		if d.done {
			return
		}
		if d.scanned == d.nextCheck {
			d.nextCheck += checkWindow
			d.checkStable()
		}
	}
}

// feedWindow walks one sub-window chunk through the probers, stopping on
// a conclusive hit. The BOM and escape probers go first: a hit from
// either outranks every other verdict, so the rest need not see the
// chunk.
func (d *Detector) feedWindow(b []byte) {
	if d.bom.feed(b) == foundIt || d.esc.feed(b) == foundIt {
		d.done = true
		return
	}
	d.utf8.feed(b)
	d.eucjp.feed(b)
	d.sjis.feed(b)
	d.stats.feed(b)
}

// checkStable implements the confidence-stable exit: if the same
// charset has led with confidence ≥ earlyExitConfidence at
// stableWindows consecutive window boundaries, lock the verdict.
func (d *Detector) checkStable() {
	best := d.Best()
	if best.Confidence < earlyExitConfidence {
		d.leader = Unknown
		d.leaderRun = 0
		return
	}
	if best.Charset == d.leader {
		d.leaderRun++
	} else {
		d.leader = best.Charset
		d.leaderRun = 1
	}
	if d.leaderRun >= stableWindows {
		d.done = true
	}
}

// Best returns the current best guess. An escape-sequence hit is
// conclusive; otherwise the highest-confidence prober wins and its
// confidence is reported. Tie-breaking is deterministic: on equal
// confidence the prober declared earliest in the composite order wins
// (BOM, escape, UTF-8, EUC-JP, Shift_JIS, TIS-620, windows-874,
// ISO-8859-11, ASCII, Latin-1) — the comparison is strictly
// greater-than, so a later prober can never displace an equal earlier
// one regardless of pooling or early exit.
func (d *Detector) Best() Result {
	s := &d.stats
	other := s.n[statOtherHigh]
	candidates := [...]Result{
		{Charset: d.bom.charset(), Confidence: d.bom.confidence()},
		{Charset: ISO2022JP, Confidence: d.esc.confidence()},
		{Charset: UTF8, Confidence: d.utf8.confidence()},
		{Charset: EUCJP, Confidence: d.eucjp.confidence()},
		{Charset: ShiftJIS, Confidence: d.sjis.confidence()},
		{Charset: TIS620, Confidence: s.thaiConfidence(other + s.n[statNBSP] + s.n[statPunct874])},
		{Charset: Windows874, Confidence: s.thaiConfidence(other)},
		{Charset: ISO885911, Confidence: s.thaiConfidence(other + s.n[statPunct874])},
		{Charset: ASCII, Confidence: s.asciiConfidence(d.esc.sawESC)},
		{Charset: Latin1, Confidence: s.latin1Confidence()},
	}
	best := Result{Charset: Unknown}
	for _, c := range candidates {
		if c.Confidence > best.Confidence {
			best = c
		}
	}
	best.Language = LanguageOf(best.Charset)
	return best
}

// detectorPool recycles Detectors across Detect/DetectReader calls so
// the steady-state hot path performs no allocations.
var detectorPool = sync.Pool{New: func() any {
	d := NewDetector()
	d.fresh = true
	return d
}}

// detectorRuns counts pool acquisitions, i.e. one-shot detection
// passes. Tests use the delta to prove a code path detects exactly once.
var detectorRuns atomic.Uint64

// DetectorRuns returns the process-wide count of one-shot detection
// passes (Detect, DetectInfo, DetectReader) performed so far.
func DetectorRuns() uint64 { return detectorRuns.Load() }

func getDetector() *Detector {
	d := detectorPool.Get().(*Detector)
	d.poolHit = !d.fresh
	d.fresh = false
	d.Reset()
	detectorRuns.Add(1)
	return d
}

func putDetector(d *Detector) { detectorPool.Put(d) }

func (d *Detector) info() ScanInfo {
	return ScanInfo{Scanned: d.scanned, EarlyExit: d.done, PoolHit: d.poolHit}
}

// Detect is the one-shot API: detect the charset of b.
func Detect(b []byte) Result {
	r, _ := DetectInfo(b)
	return r
}

// DetectInfo is Detect plus a ScanInfo describing how much of b was
// actually scanned and whether the pass exited early or reused a
// pooled detector.
func DetectInfo(b []byte) (Result, ScanInfo) {
	d := getDetector()
	d.Feed(b)
	res := d.Best()
	inf := d.info()
	putDetector(d)
	return res, inf
}

// DetectLanguage returns just the language of b per the detector,
// LangUnknown when detection fails.
func DetectLanguage(b []byte) Language {
	return Detect(b).Language
}

// DetectReader streams up to maxBytes from r through the detector —
// the form a crawler uses on a response body without buffering it all.
// maxBytes <= 0 reads to EOF. Reading stops as soon as the detector
// reaches a conclusive verdict. Read errors end detection early and
// the best guess so far is returned alongside the error.
func DetectReader(r io.Reader, maxBytes int64) (Result, error) {
	res, _, err := DetectReaderInfo(r, maxBytes)
	return res, err
}

// DetectReaderInfo is DetectReader plus the pass's ScanInfo.
func DetectReaderInfo(r io.Reader, maxBytes int64) (Result, ScanInfo, error) {
	d := getDetector()
	var total int64
	for !d.done {
		limit := int64(len(d.buf))
		if maxBytes > 0 && maxBytes-total < limit {
			limit = maxBytes - total
		}
		if limit <= 0 {
			break
		}
		n, err := r.Read(d.buf[:limit])
		if n > 0 {
			d.Feed(d.buf[:n])
			total += int64(n)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			res, inf := d.Best(), d.info()
			putDetector(d)
			return res, inf, err
		}
	}
	res, inf := d.Best(), d.info()
	putDetector(d)
	return res, inf, nil
}
