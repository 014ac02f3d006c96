package core

import (
	"fmt"
	"strings"

	"repro/internal/buffer"
	"repro/internal/engine"
	"repro/internal/ims"
	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/segment"
	"repro/internal/subtuple"
	"repro/internal/testdata"
	"repro/internal/tname"
)

// figureF1 reproduces Fig 1: the DEPARTMENTS hierarchy in an IMS-like
// representation, retrieved with GU/GN/GNP navigation — contrasted
// with the single NF² query that replaces the navigation loop.
func figureF1() (Report, error) {
	member := &ims.SegmentType{Name: "MEMBER", Fields: []string{"EMPNO", "FUNCTION"}}
	project := &ims.SegmentType{Name: "PROJECT", Fields: []string{"PNO", "PNAME"}, Children: []*ims.SegmentType{member}}
	budget := &ims.SegmentType{Name: "BUDGET", Fields: []string{"AMOUNT"}}
	equip := &ims.SegmentType{Name: "EQUIP", Fields: []string{"QU", "TYPE"}}
	dept := &ims.SegmentType{Name: "DEPARTMENT", Fields: []string{"DNO", "MGRNO"}, Children: []*ims.SegmentType{project, budget, equip}}
	db := ims.New(dept)
	for _, d := range testdata.Departments().Tuples {
		dp, err := db.Insert(dept, -1, d[0], d[1])
		if err != nil {
			return Report{}, err
		}
		for _, p := range d[2].(*model.Table).Tuples {
			pp, err := db.Insert(project, dp, p[0], p[1])
			if err != nil {
				return Report{}, err
			}
			for _, m := range p[2].(*model.Table).Tuples {
				if _, err := db.Insert(member, pp, m[0], m[1]); err != nil {
					return Report{}, err
				}
			}
		}
		if _, err := db.Insert(budget, dp, d[3]); err != nil {
			return Report{}, err
		}
		for _, e := range d[4].(*model.Table).Tuples {
			if _, err := db.Insert(equip, dp, e[0], e[1]); err != nil {
				return Report{}, err
			}
		}
	}
	var b strings.Builder
	b.WriteString("Fig 1 segment hierarchy (IMS-like representation):\n")
	b.WriteString("  DEPARTMENT (DNO, MGRNO)\n")
	b.WriteString("  ├── PROJECT (PNO, PNAME)\n")
	b.WriteString("  │   └── MEMBER (EMPNO, FUNCTION)\n")
	b.WriteString("  ├── BUDGET (AMOUNT)\n")
	b.WriteString("  └── EQUIP (QU, TYPE)\n\n")
	fmt.Fprintf(&b, "%d segment occurrences stored in hierarchic sequence (HSAM).\n\n", db.Len())
	b.WriteString("Navigational retrieval of department 314 (GU + GNP loop):\n")
	if _, err := db.GU(ims.Qual{Segment: "DEPARTMENT", Field: "DNO", Value: model.Int(314)}); err != nil {
		return Report{}, err
	}
	b.WriteString("  GU  DEPARTMENT(DNO=314)\n")
	calls := 1
	for {
		seg, err := db.GNP()
		if err != nil {
			break
		}
		calls++
		parts := make([]string, len(seg.Values))
		for i, v := range seg.Values {
			parts[i] = v.String()
		}
		fmt.Fprintf(&b, "  GNP -> %-10s %s\n", seg.Type.Name, strings.Join(parts, " "))
	}
	fmt.Fprintf(&b, "=> %d DL/I calls for one department, versus one NF² query:\n", calls)
	b.WriteString("   SELECT * FROM x IN DEPARTMENTS WHERE x.DNO = 314\n")
	return Report{ID: "F1", Title: "Fig 1: DEPARTMENTS hierarchy in IMS-like representation", Text: b.String()}, nil
}

// figureF2 runs the Fig 2 query: explicit result structure; the
// result equals the stored Table 5.
func figureF2(db *engine.DB) (Report, error) {
	q := `
SELECT x.DNO, x.MGRNO,
       PROJECTS = (SELECT y.PNO, y.PNAME,
                          MEMBERS = (SELECT z.EMPNO, z.FUNCTION FROM z IN y.MEMBERS)
                   FROM y IN x.PROJECTS),
       x.BUDGET,
       EQUIP = (SELECT v.QU, v.TYPE FROM v IN x.EQUIP)
FROM x IN DEPARTMENTS`
	tbl, tt, err := db.Query(q)
	if err != nil {
		return Report{}, err
	}
	if !model.TableEqual(tbl, testdata.Departments()) {
		return Report{}, fmt.Errorf("core: F2 result differs from Table 5")
	}
	return Report{ID: "F2", Title: "Fig 2: query with explicitly defined (nested) result structure",
		Text: q + "\n\n" + model.FormatTable("RESULT", tt, tbl) + "\n=> identical to the stored Table 5.\n"}, nil
}

// figureF3 runs the Fig 3 query: the NEST operation building Table 5
// from the flat Tables 1-4.
func figureF3(db *engine.DB) (Report, error) {
	q := `
SELECT x.DNO, x.MGRNO,
       PROJECTS = (SELECT y.PNO, y.PNAME,
                          MEMBERS = (SELECT z.EMPNO, z.FUNCTION
                                     FROM z IN MEMBERS_1NF
                                     WHERE z.PNO = y.PNO AND z.DNO = y.DNO)
                   FROM y IN PROJECTS_1NF
                   WHERE y.DNO = x.DNO),
       x.BUDGET,
       EQUIP = (SELECT v.QU, v.TYPE FROM v IN EQUIP_1NF WHERE v.DNO = x.DNO)
FROM x IN DEPARTMENTS_1NF`
	tbl, tt, err := db.Query(q)
	if err != nil {
		return Report{}, err
	}
	if !model.TableEqual(tbl, testdata.Departments()) {
		return Report{}, fmt.Errorf("core: F3 nest differs from Table 5")
	}
	return Report{ID: "F3", Title: "Fig 3: constructing Table 5 from Tables 1-4 (nest operation)",
		Text: q + "\n\n" + model.FormatTable("RESULT", tt, tbl)}, nil
}

// figureF4 runs the Fig 4 query: join between MEMBERS (inside
// DEPARTMENTS) and the flat EMPLOYEES_1NF — "join attributes need not
// be on the same level in the hierarchy".
func figureF4(db *engine.DB) (Report, error) {
	q := `
SELECT x.DNO, x.MGRNO,
       EMPLOYEES = (SELECT z.EMPNO, u.LNAME, u.FNAME, u.SEX, z.FUNCTION
                    FROM y IN x.PROJECTS, z IN y.MEMBERS, u IN EMPLOYEES_1NF
                    WHERE u.EMPNO = z.EMPNO)
FROM x IN DEPARTMENTS`
	tbl, tt, err := db.Query(q)
	if err != nil {
		return Report{}, err
	}
	return Report{ID: "F4", Title: "Fig 4: join between MEMBERS (in DEPARTMENTS) and EMPLOYEES-1NF",
		Text: q + "\n\n" + model.FormatTable("RESULT", tt, tbl)}, nil
}

// figureF5 runs the Fig 5 query: two join conditions, retrieving the
// manager's name and sex instead of MGRNO.
func figureF5(db *engine.DB) (Report, error) {
	q := `
SELECT x.DNO, m.LNAME, m.FNAME, m.SEX,
       EMPLOYEES = (SELECT z.EMPNO, u.LNAME, u.FNAME, u.SEX, z.FUNCTION
                    FROM y IN x.PROJECTS, z IN y.MEMBERS, u IN EMPLOYEES_1NF
                    WHERE u.EMPNO = z.EMPNO)
FROM x IN DEPARTMENTS, m IN EMPLOYEES_1NF
WHERE m.EMPNO = x.MGRNO`
	tbl, tt, err := db.Query(q)
	if err != nil {
		return Report{}, err
	}
	return Report{ID: "F5", Title: "Fig 5: query with two joins (manager name and sex)",
		Text: q + "\n\n" + model.FormatTable("RESULT", tt, tbl)}, nil
}

// figureF6 reproduces Fig 6: the Mini Directory trees of department
// 314 under the three storage structures SS1, SS2 and SS3, with the
// MD subtuple counts the paper argues about (SS1 > SS3 > SS2).
func figureF6() (Report, error) {
	var b strings.Builder
	tt := testdata.DepartmentsType()
	counts := map[object.Layout]object.Stats{}
	for _, layout := range []object.Layout{object.SS1, object.SS2, object.SS3} {
		pool := buffer.NewPool(256)
		pool.Register(1, segment.NewMemStore())
		st := subtuple.New(subtuple.Config{Pool: pool, Seg: 1})
		m := object.NewManager(st, layout)
		ref, err := m.Insert(tt, testdata.Departments().Tuples[0])
		if err != nil {
			return Report{}, err
		}
		dump, err := m.DumpMD(tt, ref)
		if err != nil {
			return Report{}, err
		}
		stats, err := m.ObjectStats(tt, ref)
		if err != nil {
			return Report{}, err
		}
		counts[layout] = stats
		fmt.Fprintf(&b, "--- Fig 6%c: storage structure %s ---\n", 'a'+byte(layout-1), layout)
		b.WriteString(dump)
		fmt.Fprintf(&b, "MD subtuples: %d   data subtuples: %d   pointers: %d   MD bytes: %d\n\n",
			stats.MDSubtuples, stats.DataSubtuples, stats.Pointers, stats.MDBytes)
	}
	s1, s2, s3 := counts[object.SS1], counts[object.SS2], counts[object.SS3]
	if !(s1.MDSubtuples > s3.MDSubtuples && s3.MDSubtuples > s2.MDSubtuples) {
		return Report{}, fmt.Errorf("core: MD subtuple order violated: SS1=%d SS3=%d SS2=%d",
			s1.MDSubtuples, s3.MDSubtuples, s2.MDSubtuples)
	}
	fmt.Fprintf(&b, "=> #MD subtuples: SS1=%d > SS3=%d > SS2=%d (the paper's ordering, §4.1)\n",
		s1.MDSubtuples, s3.MDSubtuples, s2.MDSubtuples)
	fmt.Fprintf(&b, "=> data subtuples identical across layouts (%d): structure/data separation\n", s1.DataSubtuples)
	return Report{ID: "F6", Title: "Fig 6: storage structures SS1/SS2/SS3 for department 314", Text: b.String()}, nil
}

// figureF7 reproduces Fig 7: the conjunctive query PNO = 17 AND
// FUNCTION = 'Consultant' under the three index address strategies,
// counting subtuple accesses. Hierarchical addresses (Fig 7b) answer
// it from the index information alone.
func figureF7() (Report, error) {
	res, err := CompareIndexStrategies(testdata.GenConfig{
		Departments: 50, ProjsPerDept: 8, MembersPerProj: 12, EquipPerDept: 4,
		Seed: 7, ConsultantEvery: 9,
	})
	if err != nil {
		return Report{}, err
	}
	var b strings.Builder
	b.WriteString("Conjunctive query: departments having a project with PNO = P that employs a Consultant\n")
	fmt.Fprintf(&b, "Workload: %d departments × %d projects × %d members\n\n", 50, 8, 12)
	fmt.Fprintf(&b, "%-28s %18s %14s %14s\n", "address strategy (§4.2)", "subtuple accesses", "pages pinned", "result size")
	for _, row := range res.Rows {
		fmt.Fprintf(&b, "%-28s %18d %14d %14d\n", row.Strategy, row.Decoded, row.Fetches, row.Results)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "=> DATA-TID addresses cannot locate the containing objects: full scan (Fig 7a's dead end).\n")
	fmt.Fprintf(&b, "=> ROOT-TID addresses find candidate objects but must scan inside them.\n")
	fmt.Fprintf(&b, "=> Hierarchical addresses resolve the conjunction by path-prefix comparison (P2 = F2, Fig 7b).\n")
	return Report{ID: "F7", Title: "Fig 7: index address strategies on a conjunctive query", Text: b.String()}, nil
}

// figureF8 reproduces Fig 8: the tuple names U, V, T, W and X of
// department 314 and their direct resolution.
func figureF8() (Report, error) {
	pool := buffer.NewPool(256)
	pool.Register(1, segment.NewMemStore())
	st := subtuple.New(subtuple.Config{Pool: pool, Seg: 1})
	m := object.NewManager(st, object.SS3)
	tt := testdata.DepartmentsType()
	ref, err := m.Insert(tt, testdata.Departments().Tuples[0])
	if err != nil {
		return Report{}, err
	}
	reg := tname.NewRegistry(m, tt)
	var b strings.Builder
	u := tname.ObjectName(ref)
	fmt.Fprintf(&b, "U (department 314 as a whole)   = %s\n", u)
	v, err := reg.SubobjectName(ref, object.Step{Attr: 2, Pos: 0})
	if err != nil {
		return Report{}, err
	}
	fmt.Fprintf(&b, "V (complex subobject project 17) = %s\n", v)
	tn, err := reg.SubobjectName(ref, object.Step{Attr: 2, Pos: 0}, object.Step{Attr: 2, Pos: 1})
	if err != nil {
		return Report{}, err
	}
	fmt.Fprintf(&b, "T (flat subobject '56019 Consultant') = %s\n", tn)
	w, err := reg.SubtableName(ref, 2)
	if err != nil {
		return Report{}, err
	}
	fmt.Fprintf(&b, "W (PROJECTS subtable)            = %s\n", w)
	x, err := reg.SubtableName(ref, 2, object.Step{Attr: 2, Pos: 0})
	if err != nil {
		return Report{}, err
	}
	fmt.Fprintf(&b, "X (MEMBERS subtable of proj 17)  = %s\n\n", x)

	member, err := reg.ResolveTuple(tn)
	if err != nil {
		return Report{}, err
	}
	fmt.Fprintf(&b, "resolve(T) -> %v\n", member)
	members, err := reg.ResolveSubtable(x)
	if err != nil {
		return Report{}, err
	}
	fmt.Fprintf(&b, "resolve(X) -> %d members: %v\n", members.Len(), members)
	token := tn.Encode()
	back, err := tname.Decode(token)
	if err != nil {
		return Report{}, err
	}
	fmt.Fprintf(&b, "\nT as an application token: %s (round-trips: %v)\n", token, back.Root == tn.Root)
	b.WriteString("\n=> t-names reuse hierarchical addresses; subtable t-names (W, X) are the\n")
	b.WriteString("   'special' form not allowed as index addresses (§4.3).\n")
	return Report{ID: "F8", Title: "Fig 8: tuple names for department 314", Text: b.String()}, nil
}
