package main

import (
	"strings"
	"testing"
)

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
