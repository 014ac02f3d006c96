package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/doctor"
	"repro/internal/engine"
	"repro/internal/page"
)

// build creates a database in dir with one table of three objects and
// returns the table's segment file. It ends with a checkpoint, so
// opening the database redoes nothing and damage to a page stays.
func build(t *testing.T, dir string) string {
	t.Helper()
	db, err := engine.Open(engine.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`CREATE TABLE D (DNO INT, NOTE STRING, S TABLE OF (V INT, W STRING))`,
		`INSERT INTO D VALUES (1, 'one', {(1, 'a'), (2, 'b')})`,
		`INSERT INTO D VALUES (2, 'two', {(3, 'c')})`,
		`INSERT INTO D VALUES (3, 'three', {})`,
	} {
		if _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	tbl, _ := db.Catalog().Table("D")
	if err := db.WALCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, fmt.Sprintf("seg_%d.dat", tbl.Seg))
}

// aimdoctor runs the command and returns its exit status and output.
func aimdoctor(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// listDir returns the names in dir, or nil when it does not exist.
func listDir(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// A healthy database verifies with status 0, and the -json report
// parses and says so.
func TestVerifyHealthy(t *testing.T) {
	dir := t.TempDir()
	build(t, dir)
	code, out, errs := aimdoctor("-dir", dir, "-json", "verify")
	if code != 0 {
		t.Fatalf("verify exited %d: %s%s", code, out, errs)
	}
	var rep doctor.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("-json report does not parse: %v\n%s", err, out)
	}
	if !rep.Healthy || rep.Mode != "verify" || rep.Scrub == nil || rep.Scrub.ObjectsChecked != 3 {
		t.Fatalf("report: %+v, scrub %+v", rep, rep.Scrub)
	}
}

// A zeroed data page is found: verify exits 1 and names the object
// that lived on it.
func TestVerifyZeroedPage(t *testing.T) {
	dir := t.TempDir()
	seg := build(t, dir)
	f, err := os.OpenFile(seg, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, page.Size), 0); err != nil { // page 1
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	code, out, errs := aimdoctor("-dir", dir, "-json", "verify")
	if code != 1 {
		t.Fatalf("verify of a zeroed page exited %d: %s%s", code, out, errs)
	}
	var rep doctor.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatal(err)
	}
	named := false
	for _, f := range rep.Scrub.Findings {
		named = named || f.Table == "D" && f.Ref != ""
	}
	if rep.Healthy || !named {
		t.Fatalf("report does not name an object of D: %s", out)
	}
}

// A directory that holds no database — empty or missing — is refused
// with status 2 by every mode, and stays as it was.
func TestNoDatabase(t *testing.T) {
	empty := t.TempDir()
	missing := filepath.Join(t.TempDir(), "nothing")
	for _, dir := range []string{empty, missing} {
		for _, mode := range []string{"scan", "verify", "repair", "checkpoint"} {
			code, out, errs := aimdoctor("-dir", dir, mode)
			if code != 2 || !strings.Contains(errs, "holds no database") {
				t.Errorf("%s on %s: exit %d: %s%s", mode, dir, code, out, errs)
			}
		}
		if names := listDir(t, dir); len(names) != 0 {
			t.Errorf("%s: the doctor wrote %v", dir, names)
		}
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Errorf("the doctor created %s: %v", missing, err)
	}
}
