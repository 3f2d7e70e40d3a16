package charset_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"langcrawl/internal/charset"
	"langcrawl/internal/webgraph"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/detect.digest from this tree's detector")

const digestFile = "testdata/detect.digest"

// digestCuts are the prefix lengths each page is also detected at: a
// lone byte, a split multibyte pair, mid-window, just past the first
// check window, on it, and just past the second.
var digestCuts = []int{1, 7, 100, 513, 1024, 2049}

// TestDetectDigest freezes the detector's observable output — Result
// plus ScanInfo.Scanned and EarlyExit — over every page of a Japanese
// and a Thai space, each page's prefixes at digestCuts, and the
// chunk-boundary corpus. The vector file was recorded with -update on
// the ten-prober detector that the one-walk rewrite replaced, so a
// match proves the rewrite is observably identical on the page mix the
// simulator classifies. Re-record only when detection is meant to
// change.
func TestDetectDigest(t *testing.T) {
	got := detectDigests(t)
	if *updateDigest {
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("line %d: got %q, recorded %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("got %d lines, recorded %d", len(gl), len(wl))
}

// detectDigests renders one fnv64a line per block of 100 pages, a
// per-space tally of full-page verdicts, and one readable line per
// corpus body.
func detectDigests(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, sp := range []struct {
		name string
		cfg  webgraph.Config
	}{
		{"japanese2000.3", webgraph.JapaneseLike(2000, 3)},
		{"thai2000.11", webgraph.ThaiLike(2000, 11)},
	} {
		s, err := webgraph.Generate(sp.cfg)
		if err != nil {
			t.Fatal(err)
		}
		tally := map[charset.Charset]int{}
		var h hash.Hash64
		for id := 0; id < s.N(); id++ {
			if id%100 == 0 {
				h = fnv.New64a()
			}
			body := s.PageBytes(webgraph.PageID(id))
			r := hashDetect(h, body)
			tally[r.Charset]++
			for _, c := range digestCuts {
				hashDetect(h, body[:min(c, len(body))])
			}
			if id%100 == 99 || id == s.N()-1 {
				fmt.Fprintf(&out, "%s/%d-%d %016x\n", sp.name, id-id%100, id, h.Sum64())
			}
		}
		fmt.Fprintf(&out, "%s/tally", sp.name)
		for _, cs := range append(charset.All(), charset.Unknown) {
			if n := tally[cs]; n > 0 {
				fmt.Fprintf(&out, " %s=%d", cs, n)
			}
		}
		out.WriteByte('\n')
	}
	for i, b := range charset.SplitCorpus() {
		r, info := charset.DetectInfo(b)
		fmt.Fprintf(&out, "split/%d %s %s %v scanned=%d early=%v\n",
			i, r.Charset, r.Language, r.Confidence, info.Scanned, info.EarlyExit)
	}
	return out.Bytes()
}

// hashDetect detects b and writes the verdict, the exact confidence
// bits, the bytes scanned and the early-exit flag into h.
func hashDetect(h hash.Hash64, b []byte) charset.Result {
	r, info := charset.DetectInfo(b)
	var early uint64
	if info.EarlyExit {
		early = 1
	}
	var rec [40]byte
	binary.LittleEndian.PutUint64(rec[0:], uint64(r.Charset))
	binary.LittleEndian.PutUint64(rec[8:], uint64(r.Language))
	binary.LittleEndian.PutUint64(rec[16:], math.Float64bits(r.Confidence))
	binary.LittleEndian.PutUint64(rec[24:], uint64(info.Scanned))
	binary.LittleEndian.PutUint64(rec[32:], early)
	h.Write(rec[:])
	return r
}
