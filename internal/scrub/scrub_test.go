package scrub

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/page"
	"repro/internal/testdata"
)

func openLoaded(t *testing.T) *engine.DB {
	t.Helper()
	ts := int64(0)
	db, err := engine.Open(engine.Options{Clock: func() int64 { ts++; return ts }})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("DEPARTMENTS", testdata.DepartmentsType(), engine.TableOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, tup := range testdata.Departments().Tuples {
		if err := db.Insert("DEPARTMENTS", tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreateTable("EMPLOYEES_1NF", testdata.EmployeesType(), engine.TableOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, tup := range testdata.Employees().Tuples {
		if err := db.Insert("EMPLOYEES_1NF", tup); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// A healthy database scrubs clean, with coverage counters proving the
// walk actually visited pages, objects and tuples.
func TestScrubCleanDatabase(t *testing.T) {
	db := openLoaded(t)
	if _, err := db.Exec(`CREATE INDEX DNO_IX ON DEPARTMENTS (DNO)`); err != nil {
		t.Fatal(err)
	}
	r, err := Run(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Clean {
		t.Fatalf("clean database produced findings: %+v", r.Findings)
	}
	if r.PagesScanned == 0 || r.ObjectsChecked == 0 || r.TuplesChecked == 0 || r.IndexesChecked != 1 {
		t.Fatalf("coverage counters: %+v", r)
	}
}

// Flipping bits in a durable page is caught by the physical pass, and
// the object living there by the logical pass.
func TestScrubDetectsBitRot(t *testing.T) {
	db := openLoaded(t)
	tbl, _ := db.Catalog().Table("DEPARTMENTS")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := db.Pool().Store(tbl.Seg)
	buf := make([]byte, page.Size)
	if err := st.ReadPage(1, buf); err != nil {
		t.Fatal(err)
	}
	buf[100] ^= 0xFF
	if err := st.WritePage(1, buf); err != nil {
		t.Fatal(err)
	}
	// Drop the cached (intact) frame so reads see the rotten image.
	db.Pool().InvalidateAll()

	r, err := Run(db, Options{Quarantine: true, SkipIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, f := range r.Findings {
		kinds = append(kinds, string(f.Kind))
	}
	joined := strings.Join(kinds, ",")
	if !strings.Contains(joined, string(PageChecksum)) {
		t.Fatalf("no page-checksum finding in %v", r.Findings)
	}
	if len(db.Quarantined()) == 0 && !strings.Contains(joined, string(Directory)) {
		t.Fatalf("bit rot neither quarantined an object nor flagged the directory: %+v", r.Findings)
	}
}

// An index that silently diverges from base data (simulated by
// mutating the live index directly) is caught and degraded.
func TestScrubDetectsIndexDivergence(t *testing.T) {
	db := openLoaded(t)
	if _, err := db.Exec(`CREATE INDEX ENO_IX ON EMPLOYEES_1NF (EMPNO)`); err != nil {
		t.Fatal(err)
	}
	ix, ok := db.IndexByName("ENO_IX")
	if !ok {
		t.Fatal("index missing")
	}
	// Fabricate a divergence: remove one entry behind the engine's back.
	tbl, _ := db.Catalog().Table("EMPLOYEES_1NF")
	refs, err := db.Refs("EMPLOYEES_1NF")
	if err != nil || len(refs) == 0 {
		t.Fatalf("refs: %v %v", refs, err)
	}
	tup, err := db.Runtime().OpenRef(tbl, refs[0], 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.RemoveFlat(refs[0], tup, tbl.Type); err != nil {
		t.Fatal(err)
	}

	r, err := Run(db, Options{Quarantine: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range r.Findings {
		if f.Kind == IndexDiverged && f.Index == "ENO_IX" {
			found = true
		}
	}
	if !found {
		t.Fatalf("divergence not found: %+v", r.Findings)
	}
	if _, live := db.IndexByName("ENO_IX"); live {
		t.Fatal("diverged index still in service after quarantining scrub")
	}
	// The query still answers, via the base table.
	empno := int64(tup[tbl.Type.AttrIndex("EMPNO")].(model.Int))
	got, _, err := db.Query(fmt.Sprintf(`SELECT x.EMPNO FROM x IN EMPLOYEES_1NF WHERE x.EMPNO = %d`, empno))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tuples) != 1 {
		t.Fatalf("fallback scan returned %d rows", len(got.Tuples))
	}
}
