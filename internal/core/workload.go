package core

import "repro/internal/engine"

// ExampleQuery is one of the paper's worked examples (§3) as a
// self-contained read-only statement against the office database.
type ExampleQuery struct {
	ID   string // "E1".."E8", paper numbering
	Text string
}

// ExampleQueries returns the read workload of the concurrency stress
// tests: Examples 1-8 of the paper, from the cheap full-table
// retrieval (E1) to restructuring (E3), unnesting (E4), quantifiers
// (E5, E6), cross-level joins (E7) and list indexing (E8). All are pure reads, so any interleaving of
// them against a quiescent office database must produce the serial
// results.
func ExampleQueries() []ExampleQuery {
	return []ExampleQuery{
		{"E1", `SELECT * FROM x IN DEPARTMENTS`},
		{"E2", `
SELECT x.DNO, x.MGRNO,
       PROJECTS = (SELECT y.PNO, y.PNAME,
                          MEMBERS = (SELECT z.EMPNO, z.FUNCTION FROM z IN y.MEMBERS)
                   FROM y IN x.PROJECTS),
       x.BUDGET,
       EQUIP = (SELECT v.QU, v.TYPE FROM v IN x.EQUIP)
FROM x IN DEPARTMENTS`},
		{"E3", `
SELECT x.DNO, x.MGRNO,
       PROJECTS = (SELECT y.PNO, y.PNAME,
                          MEMBERS = (SELECT z.EMPNO, z.FUNCTION
                                     FROM z IN MEMBERS_1NF
                                     WHERE z.PNO = y.PNO AND z.DNO = y.DNO)
                   FROM y IN PROJECTS_1NF
                   WHERE y.DNO = x.DNO),
       x.BUDGET,
       EQUIP = (SELECT v.QU, v.TYPE FROM v IN EQUIP_1NF WHERE v.DNO = x.DNO)
FROM x IN DEPARTMENTS_1NF`},
		{"E4", `
SELECT x.DNO, x.MGRNO, y.PNO, y.PNAME, z.EMPNO, z.FUNCTION
FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS`},
		{"E5", `
SELECT x.DNO, x.MGRNO, x.BUDGET
FROM x IN DEPARTMENTS
WHERE EXISTS y IN x.EQUIP: y.TYPE = 'PC/AT'`},
		{"E6", `
SELECT x.DNO, x.MGRNO, x.BUDGET
FROM x IN DEPARTMENTS
WHERE ALL y IN x.PROJECTS ALL z IN y.MEMBERS: z.FUNCTION = 'Consultant'`},
		{"E7", `
SELECT x.DNO, x.MGRNO,
       EMPLOYEES = (SELECT z.EMPNO, u.LNAME, u.FNAME, u.SEX, z.FUNCTION
                    FROM y IN x.PROJECTS, z IN y.MEMBERS, u IN EMPLOYEES_1NF
                    WHERE u.EMPNO = z.EMPNO)
FROM x IN DEPARTMENTS`},
		{"E8", `
SELECT x.AUTHORS, x.TITLE
FROM x IN REPORTS
WHERE x.AUTHORS[1].NAME = 'Jones'`},
	}
}

// OfficeWith is OfficeAt with full control over the engine options:
// the office fixtures are loaded into a database opened with opts.
// A deterministic logical clock is installed unless the caller set
// one. The concurrency tests use it to force small, sharded buffer
// pools.
func OfficeWith(opts engine.Options) (*engine.DB, error) {
	if opts.Clock == nil {
		ts := int64(0)
		opts.Clock = func() int64 { ts++; return ts }
	}
	db, err := engine.Open(opts)
	if err != nil {
		return nil, err
	}
	if err := loadOffice(db); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}
