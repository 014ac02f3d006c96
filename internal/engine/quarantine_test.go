package engine

import (
	"errors"
	"testing"

	"repro/internal/dberr"
	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/page"
)

// A quarantined object fails every access with the typed error while
// the rest of the table — and every other table — keeps being served.
func TestQuarantineContainsObject(t *testing.T) {
	db := openOffice(t)
	tbl, _ := db.Catalog().Table("DEPARTMENTS")
	refs, err := db.Refs("DEPARTMENTS")
	if err != nil || len(refs) < 2 {
		t.Fatalf("refs: %v %v", refs, err)
	}
	bad := refs[0]
	db.QuarantineObject("DEPARTMENTS", bad, dberr.Corruptf("test: injected"))

	// Point read of the quarantined object: typed failure.
	if _, err := db.Runtime().OpenRef(tbl, bad, 0, nil, false); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("OpenRef(bad) = %v, want ErrQuarantined", err)
	} else if !dberr.IsCorrupt(err) {
		t.Fatalf("quarantine error should unwrap to dberr.ErrCorrupt, got %v", err)
	}
	// Point read of a healthy sibling: fine.
	if _, err := db.Runtime().OpenRef(tbl, refs[1], 0, nil, false); err != nil {
		t.Fatalf("OpenRef(healthy) = %v", err)
	}
	// A scan that would include the object fails loudly — never a
	// silently shortened result.
	if _, _, err := db.Query(`SELECT x.DNO FROM x IN DEPARTMENTS`); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("scan over quarantined object = %v, want ErrQuarantined", err)
	}
	// Other tables are untouched.
	if _, _, err := db.Query(`SELECT x.EMPNO FROM x IN EMPLOYEES_1NF`); err != nil {
		t.Fatalf("other table: %v", err)
	}
	// DML against the quarantined object fails fast.
	if err := db.Runtime().Write(exec.Write{Op: exec.WDelete, Table: "DEPARTMENTS", Ref: bad}); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("delete of bad = %v, want ErrQuarantined", err)
	}

	// Listing and lifting.
	qs := db.Quarantined()
	if len(qs) != 1 || qs[0].Ref != bad || qs[0].Table != "DEPARTMENTS" {
		t.Fatalf("Quarantined() = %+v", qs)
	}
	db.Unquarantine("DEPARTMENTS", bad)
	if _, err := db.Runtime().OpenRef(tbl, bad, 0, nil, false); err != nil {
		t.Fatalf("after Unquarantine: %v", err)
	}
}

// A quarantined directory (zero ref) blocks scans but not point reads.
func TestQuarantineDirectoryBlocksScansOnly(t *testing.T) {
	db := openOffice(t)
	tbl, _ := db.Catalog().Table("DEPARTMENTS")
	refs, _ := db.Refs("DEPARTMENTS")
	db.QuarantineObject("DEPARTMENTS", page.TID{}, dberr.Corruptf("test: dir chunk"))

	if _, _, err := db.Query(`SELECT x.DNO FROM x IN DEPARTMENTS`); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("scan = %v, want ErrQuarantined", err)
	}
	if _, err := db.Runtime().OpenRef(tbl, refs[0], 0, nil, false); err != nil {
		t.Fatalf("point read under dir quarantine: %v", err)
	}
}

// A degraded index disappears from the planner's view; queries fall
// back to base-table scans with identical results.
func TestDegradedIndexFallsBackToScan(t *testing.T) {
	db := openOffice(t)
	if _, err := db.Exec(`CREATE INDEX DNO_IX ON DEPARTMENTS (DNO)`); err != nil {
		t.Fatal(err)
	}
	want, _, err := db.Query(`SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = 218`)
	if err != nil {
		t.Fatal(err)
	}
	db.DegradeIndex("DNO_IX", dberr.Corruptf("test: rebuilt from rot"))
	if _, ok := db.IndexByName("DNO_IX"); ok {
		t.Fatal("degraded index still registered")
	}
	if reasons := db.DegradedIndexes(); reasons["DNO_IX"] == "" {
		t.Fatalf("DegradedIndexes() = %v", reasons)
	}
	got, _, err := db.Query(`SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = 218`)
	if err != nil {
		t.Fatal(err)
	}
	if !model.TableEqual(got, want) {
		t.Fatal("degraded-index fallback changed the result")
	}
}
