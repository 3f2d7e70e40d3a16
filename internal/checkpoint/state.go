package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"langcrawl/internal/binfmt"
	"langcrawl/internal/metrics"
)

// stateMagic opens every checkpoint state file; the trailing 4 bytes are
// the CRC32 (IEEE) of everything between magic and trailer, so a state
// file validates on its own even if the manifest that names it is stale.
var stateMagic = []byte("LCCKPT1\n")

// Kind says which engine wrote the checkpoint; resuming a sim checkpoint
// in the live crawler (or vice versa) is a configuration error.
type Kind uint8

const (
	// KindLive marks a live-crawler checkpoint (URL-keyed frontier,
	// exact visited URLs, log/DB positions).
	KindLive Kind = 1
	// KindSim marks a simulator checkpoint (PageID frontier, visited
	// bitmap).
	KindSim Kind = 2
)

// Entry is one persisted frontier item. Live crawls fill URL; the
// simulator fills ID. Prio is the *effective* queued priority (a
// breaker-demoted URL checkpoints at its demoted rank, not the rank it
// was first discovered at).
type Entry struct {
	URL  string
	ID   uint32
	Dist int32
	Prio float64
	// Revisit marks an entry queued by the incremental (recrawl) mode's
	// revisit scheduler rather than by link discovery: on resume it must
	// bypass the seen-set and already-crawled skips, because the whole
	// point of the entry is to refetch a URL the crawl has seen.
	Revisit bool
}

// RevisitRec is one URL's persisted revisit-ledger state: the change
// history the incremental crawl mode uses to estimate per-URL change
// rates, plus the cache validators and body hash the next revalidation
// compares against. Live crawls fill URL/ETag/LastMod; the simulator
// fills ID/Version.
type RevisitRec struct {
	URL     string
	ID      uint32
	Dist    int32
	Version uint32
	Visits  uint32
	Changes uint32
	Hash    uint64
	ETag    string
	LastMod string
	// LastVisit and Due are virtual-time stamps (simulator only; the
	// live crawler's pass-based scheduler leaves them zero).
	LastVisit float64
	Due       float64
	Dead      bool
	// Held says the crawl holds a live copy (false for a tracked page
	// that answered 404 — latent or deleted — at its last visit).
	Held bool
}

// Breaker is one host's persisted circuit-breaker position, mirroring
// faults.CircuitBreaker field for field. It lives here rather than in
// internal/faults so that faults (which implements CrashFS against
// checkpoint.FS) can import this package without a cycle.
type Breaker struct {
	Host      string
	State     uint8
	Failures  int32
	Successes int32
	Probing   bool
	OpenedAt  float64
	Trips     int32
}

// HostUsage is one host's persisted budget consumption (see the live
// crawler's HostBudget guard). Without it a kill-resume cycle shorter
// than the budget would reset the meters every era and an infinite URL
// trap could treadmill forever without ever tripping quarantine.
type HostUsage struct {
	Host        string
	Pages       int
	URLs        int
	Bytes       int64
	Traps       int
	Quarantined bool
}

// State is everything a crawl needs to continue as if never killed.
type State struct {
	Kind     Kind
	Strategy string // Strategy.Name() of the run; resume must match
	Crawled  int    // page budget spent (failed attempts included)
	Relevant int
	Dropped  int // sim: pages whose outlinks the strategy discarded
	// Errors and RobotsBlocked are live-crawler result counters (the
	// simulator leaves them zero).
	Errors        int
	RobotsBlocked int
	// MaxQueue is the frontier's high-water mark so far, carried so the
	// resumed run reports the same maximum the uninterrupted run would.
	MaxQueue int

	Frontier []Entry

	// VisitedURLs is the live crawler's exact visited set, sorted.
	VisitedURLs []string
	// VisitedBits is the simulator's visited bitmap (VisitedN pages,
	// bit i of byte j = page 8j+i fetched), (VisitedN+7)/8 bytes.
	VisitedBits []byte
	VisitedN    int

	Breakers []Breaker
	// HostUsage carries the live crawler's per-host budget meters,
	// sorted by host (empty when budgets are off or for sim runs).
	HostUsage []HostUsage
	// Faults carries the fault counters; Faults.Attempts doubles as the
	// sampler-stream position a resumed simulator fast-forwards to.
	Faults metrics.FaultCounters

	// LogPos and DBPos are the crawl-log / link-DB byte offsets that
	// were durable when this state was captured. Recovery truncates the
	// files back to exactly these positions.
	LogPos int64
	DBPos  int64

	// Incremental (recrawl) mode state. All zero/empty for one-shot
	// crawls, so the fields cost nothing when the mode is off.

	// Pass is the revisit pass the run was in (0 = still discovering).
	Pass int
	// VTime is the simulator's virtual clock at capture time; a resumed
	// run fast-forwards its Evolver to exactly this instant, which is
	// what makes kill-resume deterministic on an evolving space.
	VTime float64
	// Fresh carries the revisit outcome counters.
	Fresh metrics.FreshCounters
	// Revisit is the revisit ledger, in first-observation order.
	Revisit []RevisitRec
	// FreshCurve is the freshness series sampled so far, carried so a
	// resumed run's curve is point-identical to an uninterrupted one.
	FreshCurve []Point
}

// Point is one persisted sample of a metrics series (X typically a
// virtual time or crawl count, Y the sampled value).
type Point struct {
	X, Y float64
}

// Encode serializes s: magic, payload, CRC32 trailer. Fields use
// binfmt's encoding.
func (s *State) Encode() []byte {
	b := append([]byte(nil), stateMagic...)
	b = append(b, byte(s.Kind))
	b = binfmt.AppendString(b, s.Strategy)
	b = binary.AppendUvarint(b, uint64(s.Crawled))
	b = binary.AppendUvarint(b, uint64(s.Relevant))
	b = binary.AppendUvarint(b, uint64(s.Dropped))
	b = binary.AppendUvarint(b, uint64(s.Errors))
	b = binary.AppendUvarint(b, uint64(s.RobotsBlocked))
	b = binary.AppendUvarint(b, uint64(s.MaxQueue))

	b = binary.AppendUvarint(b, uint64(len(s.Frontier)))
	for _, e := range s.Frontier {
		b = binfmt.AppendString(b, e.URL)
		b = binary.AppendUvarint(b, uint64(e.ID))
		b = binary.AppendVarint(b, int64(e.Dist))
		b = binfmt.AppendFloat64(b, e.Prio)
		b = binfmt.AppendBool(b, e.Revisit)
	}

	b = binary.AppendUvarint(b, uint64(len(s.VisitedURLs)))
	for _, u := range s.VisitedURLs {
		b = binfmt.AppendString(b, u)
	}
	b = binary.AppendUvarint(b, uint64(s.VisitedN))
	b = binfmt.AppendBytes(b, s.VisitedBits)
	// The slot a Bloom filter's bytes once filled stays in the format,
	// written empty, so older state files still decode.
	b = binfmt.AppendBytes(b, nil)

	b = binary.AppendUvarint(b, uint64(len(s.Breakers)))
	for _, br := range s.Breakers {
		b = binfmt.AppendString(b, br.Host)
		b = binfmt.AppendBool(append(b, br.State), br.Probing)
		b = binary.AppendUvarint(b, uint64(br.Failures))
		b = binary.AppendUvarint(b, uint64(br.Successes))
		b = binary.AppendUvarint(b, uint64(br.Trips))
		b = binfmt.AppendFloat64(b, br.OpenedAt)
	}

	b = binary.AppendUvarint(b, uint64(len(s.HostUsage)))
	for _, hu := range s.HostUsage {
		b = binfmt.AppendString(b, hu.Host)
		b = binary.AppendUvarint(b, uint64(hu.Pages))
		b = binary.AppendUvarint(b, uint64(hu.URLs))
		b = binary.AppendUvarint(b, uint64(hu.Bytes))
		b = binary.AppendUvarint(b, uint64(hu.Traps))
		b = binfmt.AppendBool(b, hu.Quarantined)
	}

	f := s.Faults
	for _, v := range []int{f.Attempts, f.Retries, f.Failures, f.Truncated, f.BreakerTrips, f.BreakerSkips, f.WastedFetches} {
		b = binary.AppendUvarint(b, uint64(v))
	}

	b = binary.AppendUvarint(b, uint64(s.LogPos))
	b = binary.AppendUvarint(b, uint64(s.DBPos))

	b = binary.AppendUvarint(b, uint64(s.Pass))
	b = binfmt.AppendFloat64(b, s.VTime)
	fr := s.Fresh
	for _, v := range []int{fr.Revisits, fr.Unchanged, fr.Changed, fr.Deleted, fr.Born, fr.CondHits} {
		b = binary.AppendUvarint(b, uint64(v))
	}

	b = binary.AppendUvarint(b, uint64(len(s.Revisit)))
	for _, r := range s.Revisit {
		b = binfmt.AppendString(b, r.URL)
		b = binary.AppendUvarint(b, uint64(r.ID))
		b = binary.AppendVarint(b, int64(r.Dist))
		b = binary.AppendUvarint(b, uint64(r.Version))
		b = binary.AppendUvarint(b, uint64(r.Visits))
		b = binary.AppendUvarint(b, uint64(r.Changes))
		b = binary.LittleEndian.AppendUint64(b, r.Hash)
		b = binfmt.AppendString(b, r.ETag)
		b = binfmt.AppendString(b, r.LastMod)
		b = binfmt.AppendFloat64(b, r.LastVisit)
		b = binfmt.AppendFloat64(b, r.Due)
		b = binfmt.AppendBool(binfmt.AppendBool(b, r.Dead), r.Held)
	}

	b = binary.AppendUvarint(b, uint64(len(s.FreshCurve)))
	for _, p := range s.FreshCurve {
		b = binfmt.AppendFloat64(b, p.X)
		b = binfmt.AppendFloat64(b, p.Y)
	}

	crc := crc32.ChecksumIEEE(b[len(stateMagic):])
	return binary.LittleEndian.AppendUint32(b, crc)
}

// ErrCorruptState marks a state file whose magic, structure, or CRC is
// wrong. A load that hits it must not trust any decoded field.
var ErrCorruptState = errors.New("checkpoint: corrupt state file")

// Decode parses bytes produced by Encode, validating magic and CRC.
func Decode(b []byte) (*State, error) {
	if len(b) < len(stateMagic)+5 || string(b[:len(stateMagic)]) != string(stateMagic) {
		return nil, ErrCorruptState
	}
	payload := b[len(stateMagic) : len(b)-4]
	want := binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(payload) != want {
		return nil, ErrCorruptState
	}
	d := binfmt.NewReader(payload)
	var s State
	s.Kind = Kind(d.Byte())
	s.Strategy = d.Str()
	s.Crawled = int(d.Uvarint())
	s.Relevant = int(d.Uvarint())
	s.Dropped = int(d.Uvarint())
	s.Errors = int(d.Uvarint())
	s.RobotsBlocked = int(d.Uvarint())
	s.MaxQueue = int(d.Uvarint())

	// Each list's minimum element size is the sum of its fields'
	// smallest encodings: 1 byte per varint, string, bool or byte, 8 per
	// float64 or hash. Each composite literal lists its fields in wire
	// order, and Go evaluates the reads left to right.
	s.Frontier = binfmt.List(d, 12, func(d *binfmt.Reader) Entry {
		return Entry{URL: d.Str(), ID: uint32(d.Uvarint()), Dist: int32(d.Varint()), Prio: d.Float64(), Revisit: d.Bool()}
	})

	s.VisitedURLs = binfmt.List(d, 1, (*binfmt.Reader).Str)
	s.VisitedN = int(d.Uvarint())
	s.VisitedBits = d.Bytes()
	d.Bytes() // the retired Bloom slot

	s.Breakers = binfmt.List(d, 14, func(d *binfmt.Reader) Breaker {
		return Breaker{
			Host: d.Str(), State: d.Byte(), Probing: d.Bool(),
			Failures: int32(d.Uvarint()), Successes: int32(d.Uvarint()), Trips: int32(d.Uvarint()),
			OpenedAt: d.Float64(),
		}
	})

	s.HostUsage = binfmt.List(d, 6, func(d *binfmt.Reader) HostUsage {
		return HostUsage{
			Host: d.Str(), Pages: int(d.Uvarint()), URLs: int(d.Uvarint()),
			Bytes: int64(d.Uvarint()), Traps: int(d.Uvarint()), Quarantined: d.Bool(),
		}
	})

	f := &s.Faults
	for _, p := range []*int{&f.Attempts, &f.Retries, &f.Failures, &f.Truncated, &f.BreakerTrips, &f.BreakerSkips, &f.WastedFetches} {
		*p = int(d.Uvarint())
	}
	s.LogPos = int64(d.Uvarint())
	s.DBPos = int64(d.Uvarint())

	s.Pass = int(d.Uvarint())
	s.VTime = d.Float64()
	fr := &s.Fresh
	for _, p := range []*int{&fr.Revisits, &fr.Unchanged, &fr.Changed, &fr.Deleted, &fr.Born, &fr.CondHits} {
		*p = int(d.Uvarint())
	}

	s.Revisit = binfmt.List(d, 34, func(d *binfmt.Reader) RevisitRec {
		return RevisitRec{
			URL: d.Str(), ID: uint32(d.Uvarint()), Dist: int32(d.Varint()),
			Version: uint32(d.Uvarint()), Visits: uint32(d.Uvarint()), Changes: uint32(d.Uvarint()),
			Hash: d.Fixed64(), ETag: d.Str(), LastMod: d.Str(),
			LastVisit: d.Float64(), Due: d.Float64(), Dead: d.Bool(), Held: d.Bool(),
		}
	})

	s.FreshCurve = binfmt.List(d, 16, func(d *binfmt.Reader) Point {
		return Point{X: d.Float64(), Y: d.Float64()}
	})

	if d.Err() != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptState, d.Err())
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptState, d.Len())
	}
	return &s, nil
}

// CRC returns the trailer CRC of an encoded state, for the manifest.
func CRC(encoded []byte) uint32 {
	if len(encoded) < 4 {
		return 0
	}
	return binary.LittleEndian.Uint32(encoded[len(encoded)-4:])
}
