package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/aimbench.golden from the current output")

// TestPaperArtifactsGolden regenerates everything a bare `aimbench`
// prints — tables T1-T8, figures F1-F8 and experiments E1-E5 — and
// compares it byte for byte with the committed output, so no artifact
// drifts silently. After an intended change, rerun with -update and
// review the diff of testdata/aimbench.golden.
func TestPaperArtifactsGolden(t *testing.T) {
	var buf strings.Builder
	if err := runAll(&buf, false, 1); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "aimbench.golden")
	if *update {
		if err := os.WriteFile(path, []byte(buf.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("output differs from %s at line %d (%d lines now, %d committed):\n- %s\n+ %s\n(rerun with -update if the change is intended)",
				path, i+1, len(got), len(wantLines), w, g)
		}
	}
}

// TestRunOneSmoke drives a small paper artifact end-to-end through the
// same path the -run flag takes.
func TestRunOneSmoke(t *testing.T) {
	var buf strings.Builder
	if err := runOne("t1", &buf); err != nil {
		t.Fatalf("runOne(t1): %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "T1") {
		t.Fatalf("report missing artifact id:\n%s", out)
	}
	if !strings.Contains(out, "DEPARTMENTS_1NF") {
		t.Fatalf("T1 report missing expected table dump:\n%s", out)
	}
}

func TestRunOneUnknownID(t *testing.T) {
	var buf strings.Builder
	if err := runOne("T99", &buf); err == nil {
		t.Fatal("runOne(T99) should fail for an unknown artifact id")
	}
}
