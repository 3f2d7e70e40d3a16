package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"langcrawl/internal/binfmt"
)

// Wire codec for the coordinator↔worker protocol. Every message is one
// self-contained frame — magic, kind byte, fields, and a CRC32 trailer
// over everything before it — carried as the body of an HTTP POST (see
// server.go/client.go). Fields use binfmt's encoding, the one the
// checkpoint state file and crawl log use too: uvarints for counts and
// unsigned fields, zigzag varints for signed ones, fixed 8-byte IEEE
// bits for float64, length-prefixed strings, read through binfmt's
// bounded cursor, which FuzzLeaseWireCodec fuzzes.

const (
	wireMagic = "LCW1"
	// wireMaxFrame bounds a frame (and therefore a decode-side
	// allocation burst); the coordinator caps batches far below this.
	wireMaxFrame = 8 << 20
)

// ErrWire is wrapped by every decode failure.
var ErrWire = errors.New("dist: bad wire frame")

type msgKind byte

const (
	kindRegisterReq msgKind = iota + 1
	kindRegisterResp
	kindPullReq
	kindPullResp
	kindForwardReq
	kindForwardResp
	kindAckReq
	kindAckResp
	kindHeartbeatReq
	kindHeartbeatResp
)

// Message is one coordinator↔worker protocol message.
type Message interface {
	kind() msgKind
	enc([]byte) []byte
	dec(*binfmt.Reader)
}

// Lease identifies one partition lease epoch. The epoch is the fencing
// token: it increments on every grant, and the coordinator refuses
// acks and renewals that carry an older one.
type Lease struct {
	Partition int
	Epoch     uint64
}

// Batch is one unit of delivered work: URLs of a single partition,
// fenced by the lease epoch they were delivered under.
type Batch struct {
	ID        uint64
	Partition int
	Epoch     uint64
	Links     []Link
}

// RegisterReq announces a worker to the coordinator.
type RegisterReq struct {
	Worker string
}

// RegisterResp carries the crawl-wide constants a worker needs.
type RegisterResp struct {
	Partitions int
	TTLMillis  int64
	MaxBatch   int
}

// PullReq asks for work: up to Max URLs from any partition the worker
// leases (the coordinator grants leases as part of serving the pull).
type PullReq struct {
	Worker string
	Max    int
}

// PullResp returns the worker's full current lease set, at most one
// batch, and whether the crawl is complete.
type PullResp struct {
	Leases []Lease
	Batch  *Batch // nil when no work is available right now
	Done   bool
}

// ForwardReq carries links a worker discovered to the coordinator,
// which owns routing and global dedup.
type ForwardReq struct {
	Worker string
	Links  []Link
}

// ForwardResp reports how the forwarded links were absorbed.
type ForwardResp struct {
	Accepted   int
	Duplicates int
}

// AckReq retires a delivered batch.
type AckReq struct {
	Worker    string
	Partition int
	Epoch     uint64
	BatchID   uint64
}

// AckResp reports the ack outcome; Stale means the lease epoch was
// fenced off and the batch will be redelivered to the current owner.
type AckResp struct {
	OK    bool
	Stale bool
}

// HeartbeatReq renews the worker's leases.
type HeartbeatReq struct {
	Worker string
	Leases []Lease
}

// HeartbeatResp lists the partitions that were renewed and the ones the
// worker no longer owns.
type HeartbeatResp struct {
	Renewed []int
	Lost    []int
	Done    bool
}

// Marshal frames m for the wire.
func Marshal(m Message) []byte {
	b := append([]byte(wireMagic), byte(m.kind()))
	b = m.enc(b)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// Unmarshal decodes one frame, verifying magic, kind, CRC, and that the
// payload is exactly consumed.
func Unmarshal(data []byte) (Message, error) {
	if len(data) > wireMaxFrame {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrWire, len(data))
	}
	if len(data) < len(wireMagic)+1+4 {
		return nil, fmt.Errorf("%w: short frame", ErrWire)
	}
	if string(data[:len(wireMagic)]) != wireMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrWire)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrWire)
	}
	var m Message
	switch msgKind(data[len(wireMagic)]) {
	case kindRegisterReq:
		m = &RegisterReq{}
	case kindRegisterResp:
		m = &RegisterResp{}
	case kindPullReq:
		m = &PullReq{}
	case kindPullResp:
		m = &PullResp{}
	case kindForwardReq:
		m = &ForwardReq{}
	case kindForwardResp:
		m = &ForwardResp{}
	case kindAckReq:
		m = &AckReq{}
	case kindAckResp:
		m = &AckResp{}
	case kindHeartbeatReq:
		m = &HeartbeatReq{}
	case kindHeartbeatResp:
		m = &HeartbeatResp{}
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrWire, data[len(wireMagic)])
	}
	r := binfmt.NewReader(body[len(wireMagic)+1:])
	m.dec(r)
	if r.Err() != nil {
		return nil, fmt.Errorf("%w: %w", ErrWire, r.Err())
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrWire, r.Len())
	}
	return m, nil
}

func appendLink(b []byte, l Link) []byte {
	b = binfmt.AppendString(b, l.URL)
	b = binary.AppendVarint(b, int64(l.Dist))
	return binfmt.AppendFloat64(b, l.Prio)
}

func appendLease(b []byte, l Lease) []byte {
	b = binary.AppendVarint(b, int64(l.Partition))
	return binary.AppendUvarint(b, l.Epoch)
}

func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

// minLinkBytes is the smallest encoded Link: empty URL (1 byte length),
// 1-byte dist varint, 8-byte priority.
const minLinkBytes = 10

func readLink(r *binfmt.Reader) Link {
	return Link{URL: r.Str(), Dist: int32(r.Varint()), Prio: r.Float64()}
}

func readLinks(r *binfmt.Reader) []Link { return binfmt.List(r, minLinkBytes, readLink) }

func readLeases(r *binfmt.Reader) []Lease {
	return binfmt.List(r, 2, func(r *binfmt.Reader) Lease {
		return Lease{Partition: int(r.Varint()), Epoch: r.Uvarint()}
	})
}

func readInts(r *binfmt.Reader) []int {
	return binfmt.List(r, 1, func(r *binfmt.Reader) int { return int(r.Varint()) })
}

func (m *RegisterReq) kind() msgKind        { return kindRegisterReq }
func (m *RegisterReq) enc(b []byte) []byte  { return binfmt.AppendString(b, m.Worker) }
func (m *RegisterReq) dec(r *binfmt.Reader) { m.Worker = r.Str() }

func (m *RegisterResp) kind() msgKind { return kindRegisterResp }
func (m *RegisterResp) enc(b []byte) []byte {
	b = appendInt(b, m.Partitions)
	b = binary.AppendVarint(b, m.TTLMillis)
	return appendInt(b, m.MaxBatch)
}
func (m *RegisterResp) dec(r *binfmt.Reader) {
	m.Partitions = int(r.Varint())
	m.TTLMillis = r.Varint()
	m.MaxBatch = int(r.Varint())
}

func (m *PullReq) kind() msgKind { return kindPullReq }
func (m *PullReq) enc(b []byte) []byte {
	b = binfmt.AppendString(b, m.Worker)
	return appendInt(b, m.Max)
}
func (m *PullReq) dec(r *binfmt.Reader) {
	m.Worker = r.Str()
	m.Max = int(r.Varint())
}

func (m *PullResp) kind() msgKind { return kindPullResp }
func (m *PullResp) enc(b []byte) []byte {
	b = binfmt.AppendList(b, m.Leases, appendLease)
	b = binfmt.AppendBool(b, m.Batch != nil)
	if m.Batch != nil {
		b = binary.AppendUvarint(b, m.Batch.ID)
		b = appendInt(b, m.Batch.Partition)
		b = binary.AppendUvarint(b, m.Batch.Epoch)
		b = binfmt.AppendList(b, m.Batch.Links, appendLink)
	}
	return binfmt.AppendBool(b, m.Done)
}
func (m *PullResp) dec(r *binfmt.Reader) {
	m.Leases = readLeases(r)
	if r.Bool() {
		m.Batch = &Batch{
			ID:        r.Uvarint(),
			Partition: int(r.Varint()),
			Epoch:     r.Uvarint(),
			Links:     readLinks(r),
		}
	} else {
		m.Batch = nil
	}
	m.Done = r.Bool()
}

func (m *ForwardReq) kind() msgKind { return kindForwardReq }
func (m *ForwardReq) enc(b []byte) []byte {
	b = binfmt.AppendString(b, m.Worker)
	return binfmt.AppendList(b, m.Links, appendLink)
}
func (m *ForwardReq) dec(r *binfmt.Reader) {
	m.Worker = r.Str()
	m.Links = readLinks(r)
}

func (m *ForwardResp) kind() msgKind { return kindForwardResp }
func (m *ForwardResp) enc(b []byte) []byte {
	b = appendInt(b, m.Accepted)
	return appendInt(b, m.Duplicates)
}
func (m *ForwardResp) dec(r *binfmt.Reader) {
	m.Accepted = int(r.Varint())
	m.Duplicates = int(r.Varint())
}

func (m *AckReq) kind() msgKind { return kindAckReq }
func (m *AckReq) enc(b []byte) []byte {
	b = binfmt.AppendString(b, m.Worker)
	b = appendInt(b, m.Partition)
	b = binary.AppendUvarint(b, m.Epoch)
	return binary.AppendUvarint(b, m.BatchID)
}
func (m *AckReq) dec(r *binfmt.Reader) {
	m.Worker = r.Str()
	m.Partition = int(r.Varint())
	m.Epoch = r.Uvarint()
	m.BatchID = r.Uvarint()
}

func (m *AckResp) kind() msgKind { return kindAckResp }
func (m *AckResp) enc(b []byte) []byte {
	b = binfmt.AppendBool(b, m.OK)
	return binfmt.AppendBool(b, m.Stale)
}
func (m *AckResp) dec(r *binfmt.Reader) {
	m.OK = r.Bool()
	m.Stale = r.Bool()
}

func (m *HeartbeatReq) kind() msgKind { return kindHeartbeatReq }
func (m *HeartbeatReq) enc(b []byte) []byte {
	b = binfmt.AppendString(b, m.Worker)
	return binfmt.AppendList(b, m.Leases, appendLease)
}
func (m *HeartbeatReq) dec(r *binfmt.Reader) {
	m.Worker = r.Str()
	m.Leases = readLeases(r)
}

func (m *HeartbeatResp) kind() msgKind { return kindHeartbeatResp }
func (m *HeartbeatResp) enc(b []byte) []byte {
	b = binfmt.AppendList(b, m.Renewed, appendInt)
	b = binfmt.AppendList(b, m.Lost, appendInt)
	return binfmt.AppendBool(b, m.Done)
}
func (m *HeartbeatResp) dec(r *binfmt.Reader) {
	m.Renewed = readInts(r)
	m.Lost = readInts(r)
	m.Done = r.Bool()
}
