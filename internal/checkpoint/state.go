package checkpoint

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"

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

// Encode serializes s: magic, payload, CRC32 trailer.
func (s *State) Encode() []byte {
	b := append([]byte(nil), stateMagic...)
	b = append(b, byte(s.Kind))
	b = appendStr(b, s.Strategy)
	b = binary.AppendUvarint(b, uint64(s.Crawled))
	b = binary.AppendUvarint(b, uint64(s.Relevant))
	b = binary.AppendUvarint(b, uint64(s.Dropped))
	b = binary.AppendUvarint(b, uint64(s.Errors))
	b = binary.AppendUvarint(b, uint64(s.RobotsBlocked))
	b = binary.AppendUvarint(b, uint64(s.MaxQueue))

	b = binary.AppendUvarint(b, uint64(len(s.Frontier)))
	for _, e := range s.Frontier {
		b = appendStr(b, e.URL)
		b = binary.AppendUvarint(b, uint64(e.ID))
		b = binary.AppendUvarint(b, zigzag(e.Dist))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Prio))
		b = append(b, boolByte(e.Revisit))
	}

	b = binary.AppendUvarint(b, uint64(len(s.VisitedURLs)))
	for _, u := range s.VisitedURLs {
		b = appendStr(b, u)
	}
	b = binary.AppendUvarint(b, uint64(s.VisitedN))
	b = appendBytes(b, s.VisitedBits)
	// The slot a Bloom filter's bytes once filled stays in the format,
	// written empty, so older state files still decode.
	b = appendBytes(b, nil)

	b = binary.AppendUvarint(b, uint64(len(s.Breakers)))
	for _, br := range s.Breakers {
		b = appendStr(b, br.Host)
		b = append(b, br.State, boolByte(br.Probing))
		b = binary.AppendUvarint(b, uint64(br.Failures))
		b = binary.AppendUvarint(b, uint64(br.Successes))
		b = binary.AppendUvarint(b, uint64(br.Trips))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(br.OpenedAt))
	}

	b = binary.AppendUvarint(b, uint64(len(s.HostUsage)))
	for _, hu := range s.HostUsage {
		b = appendStr(b, hu.Host)
		b = binary.AppendUvarint(b, uint64(hu.Pages))
		b = binary.AppendUvarint(b, uint64(hu.URLs))
		b = binary.AppendUvarint(b, uint64(hu.Bytes))
		b = binary.AppendUvarint(b, uint64(hu.Traps))
		b = append(b, boolByte(hu.Quarantined))
	}

	f := s.Faults
	for _, v := range []int{f.Attempts, f.Retries, f.Failures, f.Truncated, f.BreakerTrips, f.BreakerSkips, f.WastedFetches} {
		b = binary.AppendUvarint(b, uint64(v))
	}

	b = binary.AppendUvarint(b, uint64(s.LogPos))
	b = binary.AppendUvarint(b, uint64(s.DBPos))

	b = binary.AppendUvarint(b, uint64(s.Pass))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.VTime))
	fr := s.Fresh
	for _, v := range []int{fr.Revisits, fr.Unchanged, fr.Changed, fr.Deleted, fr.Born, fr.CondHits} {
		b = binary.AppendUvarint(b, uint64(v))
	}

	b = binary.AppendUvarint(b, uint64(len(s.Revisit)))
	for _, r := range s.Revisit {
		b = appendStr(b, r.URL)
		b = binary.AppendUvarint(b, uint64(r.ID))
		b = binary.AppendUvarint(b, zigzag(r.Dist))
		b = binary.AppendUvarint(b, uint64(r.Version))
		b = binary.AppendUvarint(b, uint64(r.Visits))
		b = binary.AppendUvarint(b, uint64(r.Changes))
		b = binary.LittleEndian.AppendUint64(b, r.Hash)
		b = appendStr(b, r.ETag)
		b = appendStr(b, r.LastMod)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.LastVisit))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Due))
		b = append(b, boolByte(r.Dead), boolByte(r.Held))
	}

	b = binary.AppendUvarint(b, uint64(len(s.FreshCurve)))
	for _, p := range s.FreshCurve {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.X))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.Y))
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
	d := &decoder{b: payload}
	var s State
	s.Kind = Kind(d.byte())
	s.Strategy = d.str()
	s.Crawled = d.int()
	s.Relevant = d.int()
	s.Dropped = d.int()
	s.Errors = d.int()
	s.RobotsBlocked = d.int()
	s.MaxQueue = d.int()

	nf := d.count(1 << 26)
	s.Frontier = make([]Entry, 0, min(nf, 1<<20))
	for i := 0; i < nf && d.err == nil; i++ {
		var e Entry
		e.URL = d.str()
		e.ID = uint32(d.uint())
		e.Dist = unzigzag(d.uint())
		e.Prio = d.float()
		e.Revisit = d.byte() != 0
		s.Frontier = append(s.Frontier, e)
	}

	nv := d.count(1 << 26)
	s.VisitedURLs = make([]string, 0, min(nv, 1<<20))
	for i := 0; i < nv && d.err == nil; i++ {
		s.VisitedURLs = append(s.VisitedURLs, d.str())
	}
	s.VisitedN = d.int()
	s.VisitedBits = d.bytes()
	d.bytes() // the retired Bloom slot

	nb := d.count(1 << 26)
	s.Breakers = make([]Breaker, 0, min(nb, 1<<20))
	for i := 0; i < nb && d.err == nil; i++ {
		var br Breaker
		br.Host = d.str()
		br.State = d.byte()
		br.Probing = d.byte() != 0
		br.Failures = int32(d.uint())
		br.Successes = int32(d.uint())
		br.Trips = int32(d.uint())
		br.OpenedAt = d.float()
		s.Breakers = append(s.Breakers, br)
	}

	nu := d.count(1 << 26)
	s.HostUsage = make([]HostUsage, 0, min(nu, 1<<20))
	for i := 0; i < nu && d.err == nil; i++ {
		var hu HostUsage
		hu.Host = d.str()
		hu.Pages = d.int()
		hu.URLs = d.int()
		hu.Bytes = int64(d.uint())
		hu.Traps = d.int()
		hu.Quarantined = d.byte() != 0
		s.HostUsage = append(s.HostUsage, hu)
	}

	f := &s.Faults
	for _, p := range []*int{&f.Attempts, &f.Retries, &f.Failures, &f.Truncated, &f.BreakerTrips, &f.BreakerSkips, &f.WastedFetches} {
		*p = d.int()
	}
	s.LogPos = int64(d.uint())
	s.DBPos = int64(d.uint())

	s.Pass = d.int()
	s.VTime = d.float()
	fr := &s.Fresh
	for _, p := range []*int{&fr.Revisits, &fr.Unchanged, &fr.Changed, &fr.Deleted, &fr.Born, &fr.CondHits} {
		*p = d.int()
	}

	nr := d.count(1 << 26)
	if nr > 0 {
		s.Revisit = make([]RevisitRec, 0, min(nr, 1<<20))
	}
	for i := 0; i < nr && d.err == nil; i++ {
		var r RevisitRec
		r.URL = d.str()
		r.ID = uint32(d.uint())
		r.Dist = unzigzag(d.uint())
		r.Version = uint32(d.uint())
		r.Visits = uint32(d.uint())
		r.Changes = uint32(d.uint())
		r.Hash = d.fixed64()
		r.ETag = d.str()
		r.LastMod = d.str()
		r.LastVisit = d.float()
		r.Due = d.float()
		r.Dead = d.byte() != 0
		r.Held = d.byte() != 0
		s.Revisit = append(s.Revisit, r)
	}

	nc := d.count(1 << 26)
	if nc > 0 {
		s.FreshCurve = make([]Point, 0, min(nc, 1<<20))
	}
	for i := 0; i < nc && d.err == nil; i++ {
		var p Point
		p.X = d.float()
		p.Y = d.float()
		s.FreshCurve = append(s.FreshCurve, p)
	}

	if d.err != nil || len(d.b) != 0 {
		return nil, ErrCorruptState
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

// decoder is a cursor over the payload with a sticky error, so field
// reads chain without per-call checks; any malformation surfaces as
// ErrCorruptState from Decode.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrCorruptState
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) int() int { return int(d.uint()) }

// count reads a collection length, rejecting absurd values so corrupt
// lengths can't drive huge allocations.
func (d *decoder) count(maxN int) int {
	v := d.uint()
	if v > uint64(maxN) {
		d.fail()
		return 0
	}
	return int(v)
}

func (d *decoder) str() string {
	n := d.count(1 << 20)
	if d.err != nil || len(d.b) < n {
		d.fail()
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) bytes() []byte {
	n := d.count(1 << 28)
	if d.err != nil || len(d.b) < n {
		d.fail()
		return nil
	}
	v := append([]byte(nil), d.b[:n]...)
	d.b = d.b[n:]
	return v
}

func (d *decoder) fixed64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *decoder) float() float64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBytes(b, v []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// zigzag maps signed to unsigned so small negatives stay small varints.
func zigzag(v int32) uint64 { return uint64(uint32(v<<1) ^ uint32(v>>31)) }

func unzigzag(u uint64) int32 { return int32(uint32(u)>>1) ^ -int32(uint32(u)&1) }
