// Package binfmt is the primitive binary encoding shared by checkpoint
// state files, the dist wire and coordinator snapshot, and crawl-log
// records:
//
//   - a uvarint for a count or an unsigned field, a zigzag varint for a
//     signed one, each in its shortest form;
//   - a float64 as its IEEE bits in 8 little-endian bytes;
//   - a bool as one byte, 0 or 1;
//   - a string or byte slice as a uvarint length and then its bytes;
//   - a list as a uvarint count and then its elements.
//
// Writers append with encoding/binary and the helpers below. Readers go
// through a Reader, which checks every length and count it reads
// against the bytes left, so a crafted prefix cannot reserve more memory
// than its input holds. Each format keeps its own framing (magic, CRC)
// and its own error, wrapping Reader.Err.
package binfmt

import (
	"encoding/binary"
	"errors"
	"math"
)

// The errors a Reader fails with.
var (
	ErrTruncated = errors.New("binfmt: field runs past the end")
	ErrVarint    = errors.New("binfmt: varint overflows 64 bits or is not in its shortest form")
	ErrCount     = errors.New("binfmt: count exceeds the bytes left")
	ErrBool      = errors.New("binfmt: bool byte is neither 0 nor 1")
)

// AppendString appends s with its length prefix.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends v with its length prefix.
func AppendBytes(b, v []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// AppendFloat64 appends v's IEEE bits, little-endian.
func AppendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendList appends the count of vs and then each element through app.
func AppendList[T any](b []byte, vs []T, app func([]byte, T) []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = app(b, v)
	}
	return b
}

// Reader is a cursor over encoded bytes with a sticky error: the first
// failure wins, and every later read returns the zero value, so a
// decoder reads its fields unconditionally and checks Err once.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader at the start of b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Offset returns the number of bytes read.
func (r *Reader) Offset() int { return r.off }

// Len returns the number of bytes left.
func (r *Reader) Len() int { return len(r.b) - r.off }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// take consumes the next n bytes, or fails and returns nil.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > r.Len() {
		r.fail(ErrTruncated)
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

// Uvarint reads an unsigned varint, refusing one that overflows 64 bits
// or has a redundant zero group at its end (an overlong encoding), so
// every value has exactly one accepted encoding.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	switch {
	case n == 0:
		r.fail(ErrTruncated)
		return 0
	case n < 0 || n > 1 && r.b[r.off+n-1] == 0:
		r.fail(ErrVarint)
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zigzag varint, as binary.AppendVarint writes it.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	v := r.Byte()
	if v > 1 {
		r.fail(ErrBool)
	}
	return v == 1
}

// Fixed64 reads 8 little-endian bytes.
func (r *Reader) Fixed64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// Float64 reads IEEE bits written by AppendFloat64.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Fixed64()) }

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.take(r.Count(r.Uvarint(), 1))) }

// Bytes reads a length-prefixed byte slice into a fresh copy; an empty
// one reads as nil.
func (r *Reader) Bytes() []byte { return append([]byte(nil), r.take(r.Count(r.Uvarint(), 1))...) }

// Count checks a decoded count n of elements, each at least minBytes
// long, against the bytes left, and returns it as an int. A count the
// rest of the input cannot hold fails the Reader and reads as 0: this is
// the guard that keeps a length prefix from sizing an allocation.
func (r *Reader) Count(n uint64, minBytes int) int {
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Len()/minBytes) {
		r.fail(ErrCount)
		return 0
	}
	return int(n)
}

// List reads a count written by AppendList, checked with Count against
// minBytes per element, and then each element through read; an empty
// list reads as nil.
func List[T any](r *Reader, minBytes int, read func(*Reader) T) []T {
	n := r.Count(r.Uvarint(), minBytes)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = read(r)
	}
	return out
}
