package crawlog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"langcrawl/internal/charset"
)

func sampleRecord() *Record {
	return &Record{
		URL:         "http://site00001.co.th/p3.html",
		Status:      200,
		TrueCharset: charset.TIS620,
		Declared:    charset.Windows874,
		Size:        4096,
		Links:       []string{"http://site00001.co.th/", "http://site00002.example.com/p1.html"},
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	rec := sampleRecord()
	got, err := DecodeRecord(EncodeRecord(rec))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Errorf("round trip: got %+v, want %+v", got, rec)
	}
}

func TestRecordCodecEdgeCases(t *testing.T) {
	cases := []*Record{
		{URL: "http://x/", Status: 404},                      // no links, zero size
		{URL: "http://x/", Status: 200, Links: []string{""}}, // empty link
		{URL: "", Status: 0},                                 // degenerate
	}
	for i, rec := range cases {
		got, err := DecodeRecord(EncodeRecord(rec))
		if err != nil {
			t.Errorf("case %d: %v", i, err)
			continue
		}
		if got.URL != rec.URL || got.Status != rec.Status || len(got.Links) != len(rec.Links) {
			t.Errorf("case %d: got %+v", i, got)
		}
	}
}

func TestRecordFaultExtension(t *testing.T) {
	plain := EncodeRecord(sampleRecord())

	rec := sampleRecord()
	rec.Failure = 3 // faults.DeadHost
	rec.Truncated = true
	enc := EncodeRecord(rec)
	if len(enc) != len(plain)+1 {
		t.Errorf("fault extension added %d bytes, want 1", len(enc)-len(plain))
	}
	got, err := DecodeRecord(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Errorf("round trip: got %+v, want %+v", got, rec)
	}

	// Each flag round-trips alone too.
	for _, r := range []*Record{
		{URL: "http://x/", Failure: 1},
		{URL: "http://x/", Status: 200, Truncated: true},
	} {
		got, err := DecodeRecord(EncodeRecord(r))
		if err != nil {
			t.Fatal(err)
		}
		if got.Failure != r.Failure || got.Truncated != r.Truncated {
			t.Errorf("got %+v, want %+v", got, r)
		}
	}
}

func TestRecordWithoutFaultsStaysByteIdentical(t *testing.T) {
	// A record with zero fault fields must encode with no extension byte:
	// the faulted encoding is exactly the fault-free bytes plus one.
	plain := EncodeRecord(sampleRecord())
	faulted := sampleRecord()
	faulted.Truncated = true
	enc := EncodeRecord(faulted)
	if len(enc) != len(plain)+1 || !bytes.Equal(enc[:len(plain)], plain) {
		t.Errorf("fault-free encoding is not a strict prefix of the faulted one:\n plain % X\n fault % X", plain, enc)
	}
	if enc[len(plain)] != 0x01 {
		t.Errorf("ext byte = %#x, want 0x01 (truncated)", enc[len(plain)])
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{
		{},
		{0xFF},
		{0x05, 'a', 'b'},                 // truncated string
		EncodeRecord(sampleRecord())[:5], // truncated record
		append(EncodeRecord(sampleRecord()), 0x00),                          // trailing bytes
		{0, '0', '0', '0', 0xFF, 0x00, 0x00},                                // overlong size varint
		append(binary.AppendUvarint([]byte{0, 0xC8, 0x01, 0, 0}, 1<<32), 0), // size past uint32
	} {
		if _, err := DecodeRecord(b); err == nil {
			t.Errorf("DecodeRecord(% X) accepted garbage", b)
		}
	}
}

// TestDecodeRecordBoundsAllocation: a record whose link count claims
// more links than its bytes can hold is refused before the link slice is
// sized from the claim.
func TestDecodeRecordBoundsAllocation(t *testing.T) {
	// Empty URL, status 200, two charset bytes, size 0, 1<<20 links: 9 bytes.
	b := binary.AppendUvarint([]byte{0, 0xC8, 0x01, 0, 0, 0}, 1<<20)
	var err error
	if n := bytesAllocated(func() { _, err = DecodeRecord(b) }); n >= 64<<10 {
		t.Errorf("DecodeRecord of a %d-byte record allocated %d bytes", len(b), n)
	}
	if err == nil {
		t.Error("DecodeRecord accepted 1<<20 links in 3 bytes")
	}
}

// bytesAllocated returns the bytes f allocates, read from the
// runtime.MemStats TotalAlloc delta.
func bytesAllocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Property: the record codec round-trips arbitrary field values.
func TestRecordCodecQuick(t *testing.T) {
	f := func(url string, status uint16, tc, dc uint8, size uint32, links []string) bool {
		rec := &Record{
			URL:         url,
			Status:      status % 1000,
			TrueCharset: charset.Charset(tc % 10),
			Declared:    charset.Charset(dc % 10),
			Size:        size,
			Links:       links,
		}
		got, err := DecodeRecord(EncodeRecord(rec))
		if err != nil {
			return false
		}
		if len(rec.Links) == 0 && len(got.Links) == 0 {
			got.Links, rec.Links = nil, nil
		}
		return reflect.DeepEqual(got, rec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWriterReaderStream(t *testing.T) {
	var buf bytes.Buffer
	h := Header{Target: charset.LangThai, SpaceSeed: 42, Seeds: []string{"http://a/"}, Comment: "test"}
	w, err := NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	recs := []*Record{
		sampleRecord(),
		{URL: "http://b/", Status: 404},
		{URL: "http://c/", Status: 200, TrueCharset: charset.EUCJP},
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 3 {
		t.Errorf("Count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Header(); got.Target != h.Target || got.SpaceSeed != 42 ||
		len(got.Seeds) != 1 || got.Comment != "test" {
		t.Errorf("Header = %+v", got)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("read %d records", len(got))
	}
	for i := range recs {
		if got[i].URL != recs[i].URL || got[i].Status != recs[i].Status {
			t.Errorf("record %d = %+v", i, got[i])
		}
	}
	// A drained reader reports clean EOF.
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("Next after end = %v", err)
	}
}

func TestReaderRejectsJunk(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("not a log at all"))); err == nil {
		t.Error("junk accepted as log")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted as log")
	}
}

func TestReaderTornTail(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Header{Target: charset.LangThai})
	w.Write(sampleRecord())
	w.Write(sampleRecord())
	w.Flush()
	data := buf.Bytes()

	// Truncate mid-record.
	r, err := NewReader(bytes.NewReader(data[:len(data)-7]))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.ReadAll()
	if err != ErrCorrupt {
		t.Errorf("torn tail error = %v, want ErrCorrupt", err)
	}
	if len(recs) != 1 {
		t.Errorf("salvaged %d records, want 1", len(recs))
	}

	// Flip a payload byte: CRC must catch it.
	damaged := append([]byte(nil), data...)
	damaged[len(damaged)-3] ^= 0xFF
	r2, _ := NewReader(bytes.NewReader(damaged))
	recs, err = r2.ReadAll()
	if err != ErrCorrupt {
		t.Errorf("bit flip error = %v, want ErrCorrupt", err)
	}
	if len(recs) != 1 {
		t.Errorf("salvaged %d records after bit flip, want 1", len(recs))
	}
}

// TestWriterRefusesOversizedRecord: the writer refuses a record its
// reader would refuse (300 000 links, 17 MiB encoded), writes nothing
// for it, and the records on either side read back.
func TestWriterRefusesOversizedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{})
	if err != nil {
		t.Fatal(err)
	}
	huge := &Record{URL: "http://huge/", Status: 200, Links: make([]string, 300_000)}
	for i := range huge.Links {
		huge.Links[i] = fmt.Sprintf("http://host%06d.example/%s", i, strings.Repeat("p", 33))
	}
	if n := len(EncodeRecord(huge)); n <= maxRecord {
		t.Fatalf("test record is %d bytes, not over the %d-byte cap", n, maxRecord)
	}
	if err := w.Write(&Record{URL: "http://a/", Status: 200}); err != nil {
		t.Fatal(err)
	}
	off := w.Offset()
	if err := w.Write(huge); err == nil {
		t.Error("Write acknowledged a record over the cap")
	}
	if w.Offset() != off || w.Count() != 1 {
		t.Errorf("refused Write moved the writer to offset %d, count %d", w.Offset(), w.Count())
	}
	if err := w.Write(&Record{URL: "http://b/", Status: 200}); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.ReadAll()
	if err != nil || len(recs) != 2 || recs[0].URL != "http://a/" || recs[1].URL != "http://b/" {
		t.Errorf("ReadAll = %d records, %v; want a and b", len(recs), err)
	}
}
