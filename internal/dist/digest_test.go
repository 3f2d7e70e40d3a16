package dist

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"testing"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/wire.digest from this tree's codecs")

const wireDigestFile = "testdata/wire.digest"

// TestWireDigest pins the bytes of the wire and of the coordinator
// snapshot: the SHA-256 of Marshal for every sampleMessages entry, and
// of encodeState for a coordinator holding pending links, an inflight
// batch and a seen set. A codec change that moves one byte on either
// shows here. Re-record with -update only when a format is meant to
// change.
func TestWireDigest(t *testing.T) {
	var got bytes.Buffer
	for i, m := range sampleMessages() {
		fmt.Fprintf(&got, "message %d %T sha256=%x\n", i, m, sha256.Sum256(Marshal(m)))
	}
	c := newTestCoord(t, newFakeClock(), nil)
	if resp := c.Pull("w1", 4); resp.Batch == nil {
		t.Fatal("no batch to hold in flight")
	}
	c.Forward("w1", []Link{
		{URL: "http://fresh.example/x", Dist: -1, Prio: 0.5},
		{URL: "http://host3.example/y", Dist: 2, Prio: -0.25},
	})
	st := c.Status()
	if st.Pending == 0 || st.Inflight == 0 || st.Seen == 0 {
		t.Fatalf("coordinator %+v lacks pending, inflight or seen URLs", st)
	}
	c.mu.Lock()
	state := c.encodeState()
	c.mu.Unlock()
	fmt.Fprintf(&got, "coordinator state sha256=%x\n", sha256.Sum256(state))

	if *updateDigest {
		if err := os.WriteFile(wireDigestFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(wireDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("line %d: got %q, recorded %q", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("got %d lines, recorded %d", len(gl), len(wl))
	}
}
