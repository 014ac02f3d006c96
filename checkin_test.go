package aim_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro"
	"repro/internal/page"
)

// TestCheckInIsDurable: a checked-in object is one committed write.
// Neither the rollback of a later failed statement nor a crash loses
// it, whether it fills one page or many, and whether or not a later
// statement committed after it.
func TestCheckInIsDurable(t *testing.T) {
	const schema = `CREATE TABLE D (DNO INT, MEMBERS TABLE OF (EMPNO INT, NAME STRING))`
	for _, tc := range []struct {
		members int
		commit  bool // a successful statement follows the check-in
		crash   bool // the end: a crash, else a failed statement
	}{
		{1, false, false}, {1, false, true},
		{400, true, false}, {400, true, true},
	} {
		t.Run(fmt.Sprintf("members%d/commit=%v/crash=%v", tc.members, tc.commit, tc.crash), func(t *testing.T) {
			insert := func(dno int) string {
				rows := make([]string, tc.members)
				for i := range rows {
					rows[i] = fmt.Sprintf("(%d, 'member %04d of department %d')", i, i, dno)
				}
				return fmt.Sprintf("INSERT INTO D VALUES (%d, {%s})", dno, strings.Join(rows, ", "))
			}
			src, err := aim.OpenMemory()
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			if _, err := src.Exec(schema + "; " + insert(1)); err != nil {
				t.Fatal(err)
			}
			refs, err := src.Refs("D")
			if err != nil {
				t.Fatal(err)
			}
			snap, err := src.Checkout("D", refs[0])
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			db, err := aim.Open(aim.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.Exec(schema + "; CREATE TABLE EMP (ENO INT, NAME STRING); " + insert(2)); err != nil {
				t.Fatal(err)
			}
			ref, err := db.CheckIn("D", snap)
			if err != nil {
				t.Fatal(err)
			}
			if tc.commit {
				if _, err := db.Exec(`INSERT INTO EMP VALUES (1, 'x')`); err != nil {
					t.Fatal(err)
				}
			}
			if tc.crash {
				eng := db.Engine()
				eng.Pool().InvalidateAll()
				eng.Log().Close()
				for _, id := range eng.Segments() {
					eng.Pool().Store(id).Close()
				}
				if db, err = aim.Open(aim.Options{Dir: dir}); err != nil {
					t.Fatal(err)
				}
			} else if _, err := db.Exec(`INSERT INTO EMP VALUES ('bad', 'x')`); err == nil {
				t.Fatal("a row of the wrong type was inserted")
			}
			defer db.Close()

			depts, _, err := db.Query(`SELECT x.DNO FROM x IN D`)
			if err != nil || depts.Len() != 2 {
				t.Fatalf("departments: %v, %v; want 2", depts, err)
			}
			rows, _, err := db.Query(`SELECT y.EMPNO FROM x IN D, y IN x.MEMBERS`)
			if err != nil || rows.Len() != 2*tc.members {
				t.Fatalf("members: %d rows, %v; want %d", rows.Len(), err, 2*tc.members)
			}
			st, err := db.ObjectStats("D", ref)
			if err != nil {
				t.Fatalf("ObjectStats of the checked-in object: %v", err)
			}
			if tc.members > 1 && st.Pages < 5 {
				t.Errorf("the large object fills %d pages, want several", st.Pages)
			}
		})
	}
}

// TestCheckInRefusesCorruptSnapshot: a snapshot is input from outside
// the database. One whose first record's slot points past its page is
// refused as corrupt, where it used to panic.
func TestCheckInRefusesCorruptSnapshot(t *testing.T) {
	const schema = `CREATE TABLE D (DNO INT, MEMBERS TABLE OF (EMPNO INT, NAME STRING))`
	src, err := aim.OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, err := src.Exec(schema + "; INSERT INTO D VALUES (1, {(1, 'a')})"); err != nil {
		t.Fatal(err)
	}
	refs, err := src.Refs("D")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := src.Checkout("D", refs[0])
	if err != nil {
		t.Fatal(err)
	}
	// The one page image ends the snapshot; its slot directory starts
	// after a 16-byte header, each entry an offset and a length.
	img := snap[len(snap)-page.Size:]
	binary.LittleEndian.PutUint16(img[16:], 0xFF00)

	db, err := aim.OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(schema); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CheckIn("D", snap); !errors.Is(err, aim.ErrCorrupt) {
		t.Fatalf("CheckIn of a corrupt snapshot: %v, want ErrCorrupt", err)
	}
	rows, _, err := db.Query(`SELECT x.DNO FROM x IN D`)
	if err != nil || rows.Len() != 0 {
		t.Fatalf("after the refused check-in: %v, %v; want no rows", rows, err)
	}
}
