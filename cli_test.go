package langcrawl_test

// End-to-end CLI tests: build the actual binaries and drive the
// documented workflows — generate a dataset, replay it in the simulator,
// detect charsets, run an experiment. These catch flag wiring and
// pipeline breaks no unit test sees.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTools compiles the cmd/ binaries once per test run.
var buildTools = func() func(t *testing.T) string {
	var dir string
	var err error
	built := false
	return func(t *testing.T) string {
		t.Helper()
		if testing.Short() {
			t.Skip("CLI builds skipped in -short mode")
		}
		if !built {
			dir, err = os.MkdirTemp("", "langcrawl-cli")
			if err == nil {
				cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
					"./cmd/genweb", "./cmd/simcrawl", "./cmd/chardet", "./cmd/experiments")
				var out []byte
				out, err = cmd.CombinedOutput()
				if err != nil {
					t.Fatalf("building tools: %v\n%s", err, out)
				}
			}
			built = true
		}
		if err != nil {
			t.Fatal(err)
		}
		return dir
	}
}()

func runTool(t *testing.T, dir, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(dir, name), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestCLIGenerateAndReplay(t *testing.T) {
	bin := buildTools(t)
	logPath := filepath.Join(t.TempDir(), "thai.crawlog")

	out := runTool(t, bin, "genweb", "-pages", "4000", "-seed", "9", "-out", logPath, "-stats")
	for _, want := range []string{"relevance ratio", "structural analyses", "top relevant hubs"} {
		if !strings.Contains(out, want) {
			t.Errorf("genweb output missing %q:\n%s", want, out)
		}
	}
	if fi, err := os.Stat(logPath); err != nil || fi.Size() == 0 {
		t.Fatalf("crawl log not written: %v", err)
	}

	out = runTool(t, bin, "simcrawl", "-log", logPath, "-strategy", "prior-limited:2")
	if !strings.Contains(out, "prior-limited-distance(N=2)") ||
		!strings.Contains(out, "coverage=") {
		t.Errorf("simcrawl output unexpected:\n%s", out)
	}
}

func TestCLICompare(t *testing.T) {
	bin := buildTools(t)
	out := runTool(t, bin, "simcrawl", "-preset", "thai", "-pages", "3000",
		"-compare", "bfs,hard,prior-limited:2")
	for _, want := range []string{"breadth-first", "hard-focused", "prior-limited-distance(N=2)", "max queue"} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIChardet(t *testing.T) {
	bin := buildTools(t)
	dir := t.TempDir()
	// TIS-620 Thai bytes with a META declaration.
	thai := filepath.Join(dir, "thai.html")
	os.WriteFile(thai, append(
		[]byte(`<meta http-equiv="content-type" content="text/html; charset=tis-620">`),
		0xA1, 0xD2, 0xC3, 0xB9, 0xD2, 0xC3, 0xA1, 0xD2, 0xC3, 0xB9, 0xD2), 0o644)
	out := runTool(t, bin, "chardet", "-meta", thai)
	if !strings.Contains(out, "TIS-620") || !strings.Contains(out, "Thai") {
		t.Errorf("chardet output: %s", out)
	}
	if strings.Contains(out, "MISMATCH") {
		t.Errorf("consistent file flagged as mismatch: %s", out)
	}
}

func TestCLIExperimentSmoke(t *testing.T) {
	bin := buildTools(t)
	outDir := t.TempDir()
	htmlPath := filepath.Join(outDir, "report.html")
	out := runTool(t, bin, "experiments",
		"-exp", "table1,table2", "-thai-pages", "3000", "-jp-pages", "1500",
		"-html", htmlPath)
	if !strings.Contains(out, "reproduce the paper's claims") {
		t.Errorf("experiments output:\n%s", out)
	}
	b, err := os.ReadFile(htmlPath)
	if err != nil || !strings.Contains(string(b), "<!DOCTYPE html>") {
		t.Errorf("HTML report not written: %v", err)
	}
}
