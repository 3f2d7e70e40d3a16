package webgraph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"testing"
)

const spaceDigestFile = "testdata/space.digest"

// TestSpaceDigest freezes Generate's output array by array. The vector
// file was recorded with -update on the last commit that built the link
// lists as per-page slices and flattened them afterwards, so a match
// proves the direct-to-CSR build draws the same random numbers in the
// same order and lays down the same space: every golden trace, result
// digest and EXPERIMENTS.md figure rests on that. Re-record only when
// the generator's model is changed on purpose.
func TestSpaceDigest(t *testing.T) {
	var got bytes.Buffer
	for _, sp := range []struct {
		name string
		cfg  Config
	}{
		{"thai400.7", ThaiLike(400, 7)},
		{"japanese2000.9", JapaneseLike(2000, 9)},
		{"japanese6000.3", JapaneseLike(6000, 3)},
		{"thai60000.1", ThaiLike(60_000, 1)},
		{"thai200000.3", ThaiLike(200_000, 3)},
	} {
		fmt.Fprintf(&got, "%s %016x\n", sp.name, spaceDigest(genSmall(t, sp.cfg)))
	}
	if *updateDigest {
		if err := os.WriteFile(spaceDigestFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(spaceDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Errorf("line %d: got %q, recorded %q", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("got %d lines, recorded %d", len(gl), len(wl))
	}
}

// spaceDigest is an FNV-64a hash over every array of s, exported and
// unexported: the sites (host, start, count, language, hidden), each
// per-page property, the CSR offsets and targets, the seeds and the
// cached relevant count. Two spaces with equal digests are the same
// space for every consumer.
func spaceDigest(s *Space) uint64 {
	d := digester{h: fnv.New64a()}
	d.u64(uint64(len(s.Sites)))
	for _, site := range s.Sites {
		d.u64(uint64(len(site.Host)))
		d.buf = append(d.buf, site.Host...)
		d.u32(site.Start)
		d.u32(site.Count)
		d.buf = append(d.buf, byte(site.Lang))
		if site.Hidden {
			d.buf = append(d.buf, 1)
		} else {
			d.buf = append(d.buf, 0)
		}
		d.flush(false)
	}
	d.u32s(s.SiteOf)
	d.u64(uint64(len(s.Lang)))
	for _, l := range s.Lang {
		d.buf = append(d.buf, byte(l))
		d.flush(false)
	}
	d.u64(uint64(len(s.Charset)))
	for _, c := range s.Charset {
		d.buf = append(d.buf, byte(c))
		d.flush(false)
	}
	d.u64(uint64(len(s.Declared)))
	for _, c := range s.Declared {
		d.buf = append(d.buf, byte(c))
		d.flush(false)
	}
	d.u64(uint64(len(s.Status)))
	for _, st := range s.Status {
		d.buf = binary.LittleEndian.AppendUint16(d.buf, st)
		d.flush(false)
	}
	d.u32s(s.Size)
	d.u64(uint64(len(s.words))) // the CSR offsets, as the offset array hashed them
	for _, w := range s.words {
		d.u64(w & offMask)
	}
	d.u32s(s.links)
	d.u32s(s.Seeds)
	d.u64(uint64(s.relevantOK))
	d.flush(true)
	return d.h.Sum64()
}

// digester buffers little-endian encodings into a hash.
type digester struct {
	h   hash.Hash64
	buf []byte
}

func (d *digester) flush(force bool) {
	if force || len(d.buf) >= 1<<15 {
		d.h.Write(d.buf)
		d.buf = d.buf[:0]
	}
}

func (d *digester) u64(v uint64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, v)
	d.flush(false)
}

func (d *digester) u32(v uint32) {
	d.buf = binary.LittleEndian.AppendUint32(d.buf, v)
	d.flush(false)
}

func (d *digester) u32s(vs []uint32) {
	d.u64(uint64(len(vs)))
	for _, v := range vs {
		d.u32(v)
	}
}
