package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/testdata"
)

// example2 is Example 2 (Fig 2) of the paper: every department as a
// nested object, its two subtables projected whole.
const example2 = `SELECT x.DNO, x.MGRNO, PROJECTS = (SELECT y.PNO, y.PNAME, MEMBERS = (SELECT z.EMPNO, z.FUNCTION FROM z IN y.MEMBERS) FROM y IN x.PROJECTS), x.BUDGET, EQUIP = (SELECT v.QU, v.TYPE FROM v IN x.EQUIP) FROM x IN DEPARTMENTS`

// TestResultRowsOwnTheirStorage is the ownership guarantee of Rows.Tuple:
// a returned row shares storage with no other row and with no stored or
// buffered state, whether the executor copied a subtable into it or
// handed it the fetched one. For each shape it streams the result and
// mutates every returned row — appends a member to every table in it,
// at every level, and overwrites every atom — one position at a time,
// and checks that the other positions of the row, the rows the cursor
// returns later and a fresh read of the same objects are unchanged. The
// shapes cover both sides of the ownership rule, and EXPLAIN must mark
// exactly the sub-blocks the row takes.
func TestResultRowsOwnTheirStorage(t *testing.T) {
	db := openOffice(t)
	defer db.Close()
	if err := db.CreateIndex("DEPT_DNO", "DEPARTMENTS", []string{"DNO"}, "HIERARCHICAL"); err != nil {
		t.Fatal(err)
	}
	asof := db.Now()
	if _, err := db.Exec(`UPDATE x IN DEPARTMENTS SET BUDGET = x.BUDGET + 1;
INSERT INTO x.PROJECTS FROM x IN DEPARTMENTS VALUES (99, 'late', {})`); err != nil {
		t.Fatal(err)
	}
	idPROJ := `(SELECT y.PNO, y.PNAME, MEMBERS = (SELECT z.EMPNO, z.FUNCTION FROM z IN y.MEMBERS) FROM y IN x.PROJECTS)`
	shapes := []struct {
		q     string
		moved []string // the sub-block lines EXPLAIN marks as taken
	}{
		{example2, []string{"PROJECTS", "EQUIP"}},
		{strings.Replace(example2, "DEPARTMENTS", fmt.Sprintf("DEPARTMENTS ASOF %d", asof), 1), []string{"PROJECTS", "EQUIP"}},
		{`SELECT x.DNO, x.PROJECTS FROM x IN DEPARTMENTS`, nil},
		{`SELECT * FROM x IN DEPARTMENTS`, nil},
		// Rule (b): the second item over the same subtable is copied.
		{`SELECT x.DNO, P1 = ` + idPROJ + `, P2 = ` + idPROJ + ` FROM x IN DEPARTMENTS`, []string{"P1"}},
		{`SELECT P1 = ` + idPROJ + `, P2 = (SELECT y.PNO, y.PNAME, y.MEMBERS FROM y IN x.PROJECTS) FROM x IN DEPARTMENTS`, []string{"P1"}},
		{`SELECT x.PROJECTS, P = ` + idPROJ + ` FROM x IN DEPARTMENTS`, nil},
		// Rule (a): x's subtables outlive one row of a two-item FROM list.
		{`SELECT x.DNO, y.PNO, M = (SELECT z.EMPNO, z.FUNCTION FROM z IN y.MEMBERS), E = (SELECT v.QU, v.TYPE FROM v IN x.EQUIP) FROM x IN DEPARTMENTS, y IN x.PROJECTS`, nil},
		// An identity sub-block inside a filtered one.
		{`SELECT x.DNO, P = (SELECT y.PNO, y.PNAME, M = (SELECT z.EMPNO, z.FUNCTION FROM z IN y.MEMBERS) FROM y IN x.PROJECTS WHERE y.PNO > 0) FROM x IN DEPARTMENTS`, nil},
		// A list-ordered subtable.
		{`SELECT r.REPNO, AUTHORS = (SELECT a.NAME FROM a IN r.AUTHORS), r.TITLE, r.DESCRIPTORS FROM r IN REPORTS`, []string{"AUTHORS"}},
	}
	for _, s := range shapes {
		res, err := db.Exec(`EXPLAIN ` + s.q)
		if err != nil {
			t.Fatalf("%s: %v", s.q, err)
		}
		var moved []string
		for _, line := range strings.Split(res[0].Message, "\n") {
			if name, ok := strings.CutSuffix(line, " = (SELECT …): fetched subtable, not rebuilt"); ok {
				moved = append(moved, strings.TrimSpace(name))
			}
		}
		if !slices.Equal(moved, s.moved) {
			t.Errorf("%s: EXPLAIN marks %v as taken, want %v:\n%s", s.q, moved, s.moved, res[0].Message)
		}
		checkRowsOwned(t, s.q, db.QueryRows, func(q string) (*model.Table, error) {
			tbl, _, err := db.Query(q)
			return tbl, err
		})
	}

	// The point_warm statement, prepared and run twice: the second run
	// must not see what was done to the first one's rows.
	ps, err := db.Prepare(nestedPoint)
	if err != nil {
		t.Fatal(err)
	}
	dno := testdata.Departments().Tuples[1][0]
	for run := 0; run < 2; run++ {
		checkRowsOwned(t, nestedPoint, func(string) (*Rows, error) { return ps.QueryRows(dno) }, func(string) (*model.Table, error) {
			tbl, _, err := ps.Query(dno)
			return tbl, err
		})
	}

	// Inside a transaction, over a pending insert and a pending update:
	// the rows are the transaction's images, which must stay as buffered.
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if _, err := tx.Exec(`INSERT INTO DEPARTMENTS VALUES (777, 1, {(1, 'p', {(2, 'Staff')})}, 10, {(1, 'PC')});
UPDATE x IN DEPARTMENTS SET BUDGET = 5 WHERE x.DNO = ` + dno.String()); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		example2,
		`SELECT * FROM x IN DEPARTMENTS`,
		`SELECT x.DNO, x.EQUIP FROM x IN DEPARTMENTS`,
		// Index candidates: each object read by reference.
		strings.Replace(nestedPoint, "?", dno.String(), 1),
		strings.Replace(nestedPoint, "?", "777", 1),
	} {
		checkRowsOwned(t, q, tx.QueryRows, func(q string) (*model.Table, error) {
			tbl, _, err := tx.Query(q)
			return tbl, err
		})
	}
}

// checkRowsOwned streams q through open and mutates each row as it
// comes, position by position (mutateValue); read answers q afresh. Each
// row must arrive as q's answer before any mutation had it, a mutation
// must leave the row's other positions as they were, and afterwards q's
// answer and every stored object must be unchanged.
func checkRowsOwned(t *testing.T, q string, open func(string) (*Rows, error), read func(string) (*model.Table, error)) {
	t.Helper()
	canon := func(qs ...string) []string {
		t.Helper()
		var out []string
		for _, q := range qs {
			tbl, err := read(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			for _, tup := range tbl.Tuples {
				out = append(out, model.CanonicalTuple(tup))
			}
		}
		return out
	}
	const allDepts, allReports = `SELECT * FROM x IN DEPARTMENTS`, `SELECT * FROM x IN REPORTS`
	want, stored := canon(q), canon(allDepts, allReports)
	rows, err := open(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	tt, n := rows.Type(), 0
	for rows.Next() {
		tup := rows.Tuple()
		if n >= len(want) || model.CanonicalTuple(tup) != want[n] {
			t.Fatalf("%s: row %d changed by what was done to the rows before it:\n got %v", q, n, tup)
		}
		for j := range tup {
			before := make([]string, len(tup))
			for k, v := range tup {
				before[k] = model.CanonicalTuple(model.Tuple{v})
			}
			tup[j] = mutateValue(tup[j], tt.Attrs[j].Type)
			for k, v := range tup {
				if k != j && model.CanonicalTuple(model.Tuple{v}) != before[k] {
					t.Fatalf("%s: row %d: changing %s changed %s", q, n, tt.Attrs[j].Name, tt.Attrs[k].Name)
				}
			}
		}
		n++
	}
	if err := rows.Close(); err != nil || n != len(want) {
		t.Fatalf("%s: %d of %d rows, %v", q, n, len(want), err)
	}
	if got := canon(q); !slices.Equal(got, want) {
		t.Fatalf("%s: a fresh read changed after its rows were mutated:\n got %v\nwant %v", q, got, want)
	}
	if got := canon(allDepts, allReports); !slices.Equal(got, stored) {
		t.Fatalf("%s: the stored objects changed after the rows were mutated", q)
	}
}

// mutateValue overwrites an atom, or, for a table, every atom of every
// member at every level and appends a member to every table in it.
func mutateValue(v model.Value, ty model.Type) model.Value {
	tbl, ok := v.(*model.Table)
	if !ok {
		return model.Str("mutated")
	}
	for _, m := range tbl.Tuples {
		for k, a := range ty.Table.Attrs {
			m[k] = mutateValue(m[k], a.Type)
		}
	}
	add := make(model.Tuple, len(ty.Table.Attrs))
	for k, a := range ty.Table.Attrs {
		if a.Type.Kind == model.KindTable {
			add[k] = &model.Table{Ordered: a.Type.Table.Ordered}
		} else {
			add[k] = model.Str("added")
		}
	}
	tbl.Append(add)
	return tbl
}
