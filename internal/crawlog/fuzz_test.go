package crawlog

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"langcrawl/internal/charset"
)

// FuzzDecodeRecord hardens the record decoder: arbitrary bytes either
// decode to a record that re-encodes to the identical bytes, or fail
// cleanly.
func FuzzDecodeRecord(f *testing.F) {
	f.Add(EncodeRecord(sampleRecord()))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := DecodeRecord(b)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeRecord(rec), b) {
			t.Fatalf("decode/encode not canonical for % X", b)
		}
	})
}

// FuzzCrawlogRoundTrip builds a record from fuzz primitives — including
// the fault extension byte — and checks it survives both the bare codec
// and a full Writer→Reader append/replay cycle.
func FuzzCrawlogRoundTrip(f *testing.F) {
	f.Add("http://site00001.co.th/p3.html", uint16(200), byte(1), byte(2),
		uint32(4096), "http://a.co.th/\nhttp://b.co.th/p1.html", byte(0), false)
	f.Add("", uint16(404), byte(0), byte(0), uint32(0), "", byte(3), true)
	f.Add("http://x/", uint16(999), byte(255), byte(255), uint32(1<<31),
		"\n\n", byte(127), false)
	f.Fuzz(func(t *testing.T, url string, status uint16, trueCS, declCS byte,
		size uint32, linkBlob string, failure byte, truncated bool) {
		if len(url) > 1<<10 || len(linkBlob) > 1<<12 {
			return
		}
		rec := &Record{
			URL:         url,
			Status:      status % 1000, // decoder rejects >999
			TrueCharset: charset.Charset(trueCS),
			Declared:    charset.Charset(declCS),
			Size:        size,
			// Failure occupies the top 7 bits of the extension byte; values
			// above 127 cannot round-trip and the fault layer never emits them.
			Failure:   failure % 128,
			Truncated: truncated,
		}
		// DecodeRecord always materializes a non-nil Links slice.
		rec.Links = []string{}
		for _, l := range bytes.Split([]byte(linkBlob), []byte("\n")) {
			if len(l) > 0 {
				rec.Links = append(rec.Links, string(l))
			}
		}

		got, err := DecodeRecord(EncodeRecord(rec))
		if err != nil {
			t.Fatalf("decode of encoded record failed: %v", err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("codec round trip: got %+v, want %+v", got, rec)
		}

		var buf bytes.Buffer
		w, err := NewWriter(&buf, Header{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := w.Write(rec); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := r.ReadAll()
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		if len(recs) != 5 {
			t.Fatalf("replayed %d records, want 5", len(recs))
		}
		for _, rr := range recs {
			if !reflect.DeepEqual(rr, rec) {
				t.Fatalf("log round trip: got %+v, want %+v", rr, rec)
			}
		}
	})
}

// FuzzReader hardens the log reader against arbitrary streams: it must
// terminate with clean EOF or ErrCorrupt, never panic or loop.
func FuzzReader(f *testing.F) {
	var good bytes.Buffer
	w, _ := NewWriter(&good, Header{})
	w.Write(sampleRecord())
	w.Flush()
	f.Add(good.Bytes())
	f.Add([]byte("LCLOG1\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := NewReader(bytes.NewReader(b))
		if err != nil {
			return
		}
		for i := 0; ; i++ {
			_, err := r.Next()
			if err == io.EOF || err == ErrCorrupt {
				return
			}
			if err != nil {
				t.Fatalf("unexpected error class: %v", err)
			}
			if i > len(b) {
				t.Fatal("reader yielded more records than input bytes")
			}
		}
	})
}
