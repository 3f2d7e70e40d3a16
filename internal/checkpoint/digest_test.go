package checkpoint_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/state.digest from this tree's encoder")

const stateDigestFile = "testdata/state.digest"

// TestStateDigest pins the bytes Encode writes for sampleState(100),
// which sets every State field: negative distances, revisit records,
// the freshness curve, host usage, breakers and visited URLs. The
// simulator's checkpoint digest covers only KindSim states; this one
// covers the live crawler's fields. Re-record with -update only when
// the state format is meant to change.
func TestStateDigest(t *testing.T) {
	got := fmt.Sprintf("sampleState(100) sha256=%x\n", sha256.Sum256(sampleState(100).Encode()))
	if *updateDigest {
		if err := os.WriteFile(stateDigestFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(stateDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("got %q, recorded %q", strings.TrimSpace(got), strings.TrimSpace(string(want)))
	}
}
