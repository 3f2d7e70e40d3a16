package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// TestMainProcess is not a test: it is the subprocess the tests below
// re-exec, running main with the arguments after "--". Run without
// them, it returns at once.
func TestMainProcess(t *testing.T) {
	for i, a := range os.Args {
		if a == "--" {
			os.Args = append([]string{os.Args[0]}, os.Args[i+1:]...)
			flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
			main()
			return
		}
	}
}

// livecrawl runs main in a subprocess in dir and returns its output and
// whether it exited zero.
func livecrawl(t *testing.T, dir string, args ...string) (string, bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestMainProcess$", "--"}, args...)...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if _, exited := err.(*exec.ExitError); err != nil && !exited {
		t.Fatal(err)
	}
	return string(out), err == nil
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRerunWithoutCheckpointRefused: a second run on the same -log and
// -db with no checkpoint to vouch for them must refuse, leaving both
// files as the first run wrote them.
func TestRerunWithoutCheckpointRefused(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-pages", "300", "-max", "100", "-db", "links.db", "-log", "a.crawlog"}
	if out, ok := livecrawl(t, dir, args...); !ok {
		t.Fatalf("first run failed:\n%s", out)
	}
	log1 := readFile(t, filepath.Join(dir, "a.crawlog"))
	db1 := readFile(t, filepath.Join(dir, "links.db"))

	out, ok := livecrawl(t, dir, args...)
	if ok {
		t.Errorf("rerun without a checkpoint exited 0:\n%s", out)
	}
	if !bytes.Equal(readFile(t, filepath.Join(dir, "a.crawlog")), log1) {
		t.Error("rerun changed the crawl log")
	}
	if !bytes.Equal(readFile(t, filepath.Join(dir, "links.db")), db1) {
		t.Error("rerun changed the link DB")
	}
}

// TestCheckpointResumeReport: a crawl stopped by its budget and resumed
// from its checkpoint writes the log one uninterrupted run writes, and
// the resumed run reports its own pages beside the crawl's total.
func TestCheckpointResumeReport(t *testing.T) {
	ref := t.TempDir()
	if out, ok := livecrawl(t, ref, "-pages", "300", "-log", "a.crawlog"); !ok {
		t.Fatalf("uninterrupted run failed:\n%s", out)
	}

	dir := t.TempDir()
	args := []string{"-pages", "300", "-log", "a.crawlog", "-db", "links.db", "-checkpoint-dir", "ck"}
	if out, ok := livecrawl(t, dir, append(args, "-max", "100")...); !ok {
		t.Fatalf("budgeted run failed:\n%s", out)
	}
	out, ok := livecrawl(t, dir, args...)
	if !ok {
		t.Fatalf("resumed run failed:\n%s", out)
	}
	m := regexp.MustCompile(`crawled (\d+) pages in \S+ \(\d+ pages/s\), (\d+) in the whole crawl`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("resumed run's report has no this-run and whole-crawl counts:\n%s", out)
	}
	if m[1] != "200" || m[2] != "300" {
		t.Errorf("resumed run reported %s pages of %s, want 200 of 300:\n%s", m[1], m[2], out)
	}
	if !bytes.Equal(readFile(t, filepath.Join(dir, "a.crawlog")), readFile(t, filepath.Join(ref, "a.crawlog"))) {
		t.Error("budget stop + resume wrote a different log from one uninterrupted run")
	}
}
