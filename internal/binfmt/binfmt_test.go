package binfmt

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var b []byte
	b = binary.AppendUvarint(b, math.MaxUint64)
	b = binary.AppendVarint(b, math.MinInt64)
	b = binary.AppendVarint(b, -1)
	b = AppendFloat64(b, -0.25)
	b = AppendBool(AppendBool(b, true), false)
	b = AppendString(b, "héllo")
	b = AppendBytes(b, []byte{0, 1, 2})
	b = binary.LittleEndian.AppendUint64(b, 0xdeadbeefcafe)
	b = AppendList(b, []string{"a", "", "bc"}, AppendString)
	b = AppendList(b, []string(nil), AppendString)

	r := NewReader(b)
	got := []any{r.Uvarint(), r.Varint(), r.Varint(), r.Float64(), r.Bool(), r.Bool(),
		r.Str(), r.Bytes(), r.Fixed64(), List(r, 1, (*Reader).Str), List(r, 1, (*Reader).Str)}
	want := []any{uint64(math.MaxUint64), int64(math.MinInt64), int64(-1), -0.25, true, false,
		"héllo", []byte{0, 1, 2}, uint64(0xdeadbeefcafe), []string{"a", "", "bc"}, []string(nil)}
	if r.Err() != nil || r.Len() != 0 || r.Offset() != len(b) {
		t.Fatalf("err %v, %d bytes left, offset %d of %d", r.Err(), r.Len(), r.Offset(), len(b))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %#v\nwant %#v", got, want)
	}
}

// TestRejects feeds each read a malformed input and checks the error it
// fails with, and that the failure sticks.
func TestRejects(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		read func(*Reader)
		want error
	}{
		{"empty uvarint", nil, func(r *Reader) { r.Uvarint() }, ErrTruncated},
		{"continued uvarint", []byte{0x80}, func(r *Reader) { r.Uvarint() }, ErrTruncated},
		{"overlong zero", []byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }, ErrVarint},
		{"overlong 127", []byte{0xFF, 0x00}, func(r *Reader) { r.Uvarint() }, ErrVarint},
		{"overlong varint", []byte{0x81, 0x80, 0x00}, func(r *Reader) { r.Varint() }, ErrVarint},
		{"65-bit uvarint", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02}, func(r *Reader) { r.Uvarint() }, ErrVarint},
		{"bool 2", []byte{2}, func(r *Reader) { r.Bool() }, ErrBool},
		{"short float", make([]byte, 7), func(r *Reader) { r.Float64() }, ErrTruncated},
		{"string past end", []byte{3, 'a', 'b'}, func(r *Reader) { r.Str() }, ErrCount},
		{"bytes past end", []byte{1}, func(r *Reader) { r.Bytes() }, ErrCount},
		{"list past end", []byte{3, 0, 0}, func(r *Reader) { List(r, 1, (*Reader).Str) }, ErrCount},
		{"list of wide elements", []byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, func(r *Reader) { List(r, 8, (*Reader).Float64) }, ErrCount},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(tc.in)
			tc.read(r)
			if !errors.Is(r.Err(), tc.want) {
				t.Fatalf("err %v, want %v", r.Err(), tc.want)
			}
			off := r.Offset()
			if r.Byte() != 0 || r.Uvarint() != 0 || r.Str() != "" || r.Offset() != off || !errors.Is(r.Err(), tc.want) {
				t.Fatalf("reads after %v moved the cursor or replaced the error (%v)", tc.want, r.Err())
			}
		})
	}
}

// TestCount checks the guard at its edge: exactly as many elements as
// the bytes left can hold pass, one more fails.
func TestCount(t *testing.T) {
	r := NewReader(make([]byte, 24))
	if n := r.Count(3, 8); n != 3 || r.Err() != nil {
		t.Fatalf("Count(3, 8) over 24 bytes = %d, %v", n, r.Err())
	}
	if n := r.Count(4, 8); n != 0 || !errors.Is(r.Err(), ErrCount) {
		t.Fatalf("Count(4, 8) over 24 bytes = %d, %v", n, r.Err())
	}
}
