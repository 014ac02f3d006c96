// Benchmarks regenerating the quantitative shape of the paper's
// storage and addressing claims (see DESIGN.md §4 for the experiment
// index and EXPERIMENTS.md for recorded results):
//
//   - BenchmarkLayout*: SS1/SS2/SS3 build, whole-object read and
//     partial navigation (Fig 6, §4.1);
//   - BenchmarkIndexAddressing: the Fig 7 conjunctive query under
//     data-TID, root-TID and hierarchical index addresses (§4.2);
//   - BenchmarkMaterializedJoin: hierarchical table as a pre-computed
//     join versus the equivalent flat 3-way join (§3 Example 4);
//   - BenchmarkClusteringColdRead / BenchmarkWholeObjectRead: local
//     address spaces versus Lorie's "on top" linked tuples (§1, §4.1);
//   - BenchmarkCheckout: page-level relocation cost versus object
//     size (§4.1);
//   - BenchmarkTextSearch: masked search with and without the
//     word-fragment text index (§5);
//   - BenchmarkASOF: reading the oldest state of a time-version
//     chain, O(log versions) hops over its skip pointers (§5);
//   - BenchmarkExistsVsAll: quantifier evaluation (§3 Examples 5-6).
package aim

import (
	"fmt"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/lorie"
	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/page"
	"repro/internal/segment"
	"repro/internal/sql"
	"repro/internal/subtuple"
	"repro/internal/testdata"
)

func benchWorld(b *testing.B, layout object.Layout) (*buffer.Pool, *subtuple.Store, *object.Manager) {
	b.Helper()
	pool := buffer.NewPool(1 << 16)
	pool.Register(1, segment.NewMemStore())
	st := subtuple.New(subtuple.Config{Pool: pool, Seg: 1})
	return pool, st, object.NewManager(st, layout)
}

var benchCfg = testdata.GenConfig{
	Departments: 50, ProjsPerDept: 8, MembersPerProj: 15, EquipPerDept: 5, Seed: 42,
}

// --- Fig 6 / §4.1: storage structures -----------------------------------

func BenchmarkLayoutBuild(b *testing.B) {
	data := testdata.GenDepartments(benchCfg)
	tt := testdata.DepartmentsType()
	for _, layout := range []object.Layout{object.SS1, object.SS2, object.SS3} {
		b.Run(layout.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, m := benchWorld(b, layout)
				for _, tup := range data.Tuples {
					if _, err := m.Insert(tt, tup); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkLayoutReadObject(b *testing.B) {
	data := testdata.GenDepartments(benchCfg)
	tt := testdata.DepartmentsType()
	for _, layout := range []object.Layout{object.SS1, object.SS2, object.SS3} {
		b.Run(layout.String(), func(b *testing.B) {
			_, _, m := benchWorld(b, layout)
			var refs []object.Ref
			for _, tup := range data.Tuples {
				ref, _ := m.Insert(tt, tup)
				refs = append(refs, ref)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Read(tt, refs[i%len(refs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLayoutNavigate(b *testing.B) {
	data := testdata.GenDepartments(benchCfg)
	tt := testdata.DepartmentsType()
	for _, layout := range []object.Layout{object.SS1, object.SS2, object.SS3} {
		b.Run(layout.String(), func(b *testing.B) {
			_, _, m := benchWorld(b, layout)
			var refs []object.Ref
			for _, tup := range data.Tuples {
				ref, _ := m.Insert(tt, tup)
				refs = append(refs, ref)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Partial retrieval of one member's atoms: navigation
				// over structural information only.
				_, err := m.ReadAtomsAt(tt, refs[i%len(refs)],
					object.Step{Attr: 2, Pos: i % benchCfg.ProjsPerDept},
					object.Step{Attr: 2, Pos: i % benchCfg.MembersPerProj})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig 7 / §4.2: index address strategies ------------------------------

func BenchmarkIndexAddressing(b *testing.B) {
	cfg := benchCfg
	cfg.ConsultantEvery = 9
	cfg.ProjectNoRange = cfg.ProjsPerDept * 3
	data := testdata.GenDepartments(cfg)
	tt := testdata.DepartmentsType()

	hasConsultant := func(proj model.Tuple) bool {
		for _, z := range proj[2].(*model.Table).Tuples {
			if z[1].(model.Str) == "Consultant" {
				return true
			}
		}
		return false
	}
	targetPNO := int64(-1)
	for _, d := range data.Tuples {
		for _, p := range d[2].(*model.Table).Tuples {
			if hasConsultant(p) {
				targetPNO = int64(p[0].(model.Int))
				break
			}
		}
		if targetPNO >= 0 {
			break
		}
	}
	matches := func(d model.Tuple) bool {
		for _, p := range d[2].(*model.Table).Tuples {
			if int64(p[0].(model.Int)) == targetPNO && hasConsultant(p) {
				return true
			}
		}
		return false
	}

	for _, kind := range []index.Kind{index.DataTID, index.RootTID, index.Hierarchical} {
		b.Run(kind.String(), func(b *testing.B) {
			_, _, m := benchWorld(b, object.SS3)
			var refs []object.Ref
			for _, tup := range data.Tuples {
				ref, _ := m.Insert(tt, tup)
				refs = append(refs, ref)
			}
			pnoIx, _ := index.New(index.Def{Name: "pno", Path: []string{"PROJECTS", "PNO"}, Kind: kind}, tt)
			fnIx, _ := index.New(index.Def{Name: "fn", Path: []string{"PROJECTS", "MEMBERS", "FUNCTION"}, Kind: kind}, tt)
			for _, ref := range refs {
				pnoIx.AddObject(m, tt, ref)
				fnIx.AddObject(m, tt, ref)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results := 0
				switch kind {
				case index.DataTID:
					// Unusable addresses: full table scan (Fig 7a).
					for _, ref := range refs {
						tup, err := m.Read(tt, ref)
						if err != nil {
							b.Fatal(err)
						}
						if matches(tup) {
							results++
						}
					}
				case index.RootTID:
					pAddrs, _ := pnoIx.Lookup(model.Int(targetPNO))
					fAddrs, _ := fnIx.Lookup(model.Str("Consultant"))
					fRoots := map[page.TID]bool{}
					for _, a := range fAddrs {
						fRoots[a.TID] = true
					}
					for _, root := range index.DistinctRoots(pAddrs) {
						if !fRoots[root] {
							continue
						}
						tup, err := m.Read(tt, root)
						if err != nil {
							b.Fatal(err)
						}
						if matches(tup) {
							results++
						}
					}
				case index.Hierarchical:
					pAddrs, _ := pnoIx.Lookup(model.Int(targetPNO))
					fAddrs, _ := fnIx.Lookup(model.Str("Consultant"))
					pairs := index.IntersectByPrefix(pAddrs, fAddrs, 1)
					seen := map[page.TID]bool{}
					for _, pr := range pairs {
						if !seen[pr[0].TID] {
							seen[pr[0].TID] = true
							if _, err := m.ReadAtomsAt(tt, pr[0].TID); err != nil {
								b.Fatal(err)
							}
							results++
						}
					}
				}
				if results == 0 {
					b.Fatal("no results")
				}
			}
		})
	}
}

// --- §3 Example 4: materialized join vs flat join -------------------------

func BenchmarkMaterializedJoin(b *testing.B) {
	db, err := core.Office()
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	// Scale the stored data: add generated departments and their 1NF
	// decomposition.
	// Modest scale: the flat 3-way join is a naive nested loop, so its
	// cost grows with the product of the table sizes.
	gen := testdata.GenDepartments(testdata.GenConfig{
		Departments: 12, ProjsPerDept: 5, MembersPerProj: 8, EquipPerDept: 3, Seed: 9,
	})
	for _, d := range gen.Tuples {
		if err := db.Insert("DEPARTMENTS", d); err != nil {
			b.Fatal(err)
		}
		if err := db.Insert("DEPARTMENTS_1NF", model.Tuple{d[0], d[1], d[3]}); err != nil {
			b.Fatal(err)
		}
		for _, p := range d[2].(*model.Table).Tuples {
			if err := db.Insert("PROJECTS_1NF", model.Tuple{p[0], p[1], d[0]}); err != nil {
				b.Fatal(err)
			}
			for _, m := range p[2].(*model.Table).Tuples {
				if err := db.Insert("MEMBERS_1NF", model.Tuple{m[0], p[0], d[0], m[1]}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("NF2Unnest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tbl, _, err := db.Query(`
SELECT x.DNO, y.PNO, z.EMPNO, z.FUNCTION
FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS`)
			if err != nil {
				b.Fatal(err)
			}
			if tbl.Len() == 0 {
				b.Fatal("empty")
			}
		}
	})
	b.Run("Flat3WayJoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tbl, _, err := db.Query(`
SELECT x.DNO, y.PNO, z.EMPNO, z.FUNCTION
FROM x IN DEPARTMENTS_1NF, y IN PROJECTS_1NF, z IN MEMBERS_1NF
WHERE x.DNO = y.DNO AND y.PNO = z.PNO AND y.DNO = z.DNO`)
			if err != nil {
				b.Fatal(err)
			}
			if tbl.Len() == 0 {
				b.Fatal("empty")
			}
		}
	})
}

// --- §4.1: clustering and whole-object reads ------------------------------

func BenchmarkWholeObjectRead(b *testing.B) {
	data := testdata.GenDepartments(benchCfg)
	tt := testdata.DepartmentsType()
	b.Run("AIM-II", func(b *testing.B) {
		_, _, m := benchWorld(b, object.SS3)
		var refs []object.Ref
		for _, tup := range data.Tuples {
			ref, _ := m.Insert(tt, tup)
			refs = append(refs, ref)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Read(tt, refs[i%len(refs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("LorieLinkedTuples", func(b *testing.B) {
		pool := buffer.NewPool(1 << 16)
		pool.Register(1, segment.NewMemStore())
		st := subtuple.New(subtuple.Config{Pool: pool, Seg: 1})
		ls := lorie.New(st, tt)
		var roots []page.TID
		for _, tup := range data.Tuples {
			root, _ := ls.Insert(tup)
			roots = append(roots, root)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ls.Read(roots[i%len(roots)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkClusteringColdRead(b *testing.B) {
	// One measured iteration = cold-reading every grown object; the
	// physical read counts are reported as custom metrics.
	rows, err := core.CompareClustering(16, 5, 12, 40, 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		b.Run(r.System, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = r
			}
			b.ReportMetric(float64(r.PhysicalReads), "coldreads/op")
			b.ReportMetric(float64(r.Fetches), "fetches/op")
		})
	}
}

// --- §4.1: page-level checkout ---------------------------------------------

func BenchmarkCheckout(b *testing.B) {
	tt := testdata.DepartmentsType()
	for _, members := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("members=%d", members), func(b *testing.B) {
			cfg := testdata.GenConfig{Departments: 1, ProjsPerDept: 1, MembersPerProj: members, EquipPerDept: 1, Seed: int64(members)}
			data := testdata.GenDepartments(cfg)
			_, _, m := benchWorld(b, object.SS3)
			ref, err := m.Insert(tt, data.Tuples[0])
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap, err := m.Export(ref)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.Import(snap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- §5: masked text search -------------------------------------------------

func BenchmarkTextSearch(b *testing.B) {
	db, err := core.Office()
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	words := []string{"database", "minicomputer", "network", "design", "graphics",
		"computer", "workstation", "protocol", "compiler", "computational", "storage"}
	for i := 0; i < 500; i++ {
		title := fmt.Sprintf("%s %s %s", words[i%len(words)], words[(i*3+1)%len(words)], words[(i*7+2)%len(words)])
		stmt := fmt.Sprintf(`INSERT INTO REPORTS VALUES ('%04d', <('Author%d')>, '%s', {})`, 1000+i, i%20, title)
		if _, err := db.Exec(stmt); err != nil {
			b.Fatal(err)
		}
	}
	q := `SELECT x.REPNO FROM x IN REPORTS WHERE x.TITLE CONTAINS '*comput*'`
	b.Run("Scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tbl, _, err := db.Query(q)
			if err != nil {
				b.Fatal(err)
			}
			if tbl.Len() == 0 {
				b.Fatal("empty")
			}
		}
	})
	if err := db.CreateTextIndex("bench_title", "REPORTS", []string{"TITLE"}); err != nil {
		b.Fatal(err)
	}
	b.Run("FragmentIndex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tbl, _, err := db.Query(q)
			if err != nil {
				b.Fatal(err)
			}
			if tbl.Len() == 0 {
				b.Fatal("empty")
			}
		}
	})
}

// --- §5: ASOF version chains -------------------------------------------------

func BenchmarkASOF(b *testing.B) {
	for _, depth := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("versions=%d", depth), func(b *testing.B) {
			pool := buffer.NewPool(1 << 16)
			pool.Register(1, segment.NewMemStore())
			ts := int64(0)
			st := subtuple.New(subtuple.Config{Pool: pool, Seg: 1, Versioned: true, Clock: func() int64 { ts++; return ts }})
			tid, _ := st.Insert([]byte("v0"))
			for i := 0; i < depth; i++ {
				if err := st.Update(tid, []byte(fmt.Sprintf("v%d", i+1))); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok, err := st.ReadAsOf(tid, 1); err != nil || !ok {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- §3 Examples 5-6: quantifier evaluation -----------------------------------

func BenchmarkExistsVsAll(b *testing.B) {
	db, err := engineWithGen(b, object.SS3)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	b.Run("EXISTS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := db.Query(`
SELECT x.DNO FROM x IN DEPARTMENTS
WHERE EXISTS y IN x.PROJECTS EXISTS z IN y.MEMBERS: z.FUNCTION = 'Leader'`); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ALL", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := db.Query(`
SELECT x.DNO FROM x IN DEPARTMENTS
WHERE ALL y IN x.PROJECTS ALL z IN y.MEMBERS: z.FUNCTION = 'Leader'`); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func engineWithGen(b *testing.B, layout object.Layout) (*engine.DB, error) {
	b.Helper()
	db, err := engine.Open(engine.Options{DefaultLayout: layout})
	if err != nil {
		return nil, err
	}
	if err := db.CreateTable("DEPARTMENTS", testdata.DepartmentsType(), engine.TableOptions{}); err != nil {
		return nil, err
	}
	for _, tup := range testdata.GenDepartments(benchCfg).Tuples {
		if err := db.Insert("DEPARTMENTS", tup); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// --- projection pushdown: pruned vs full-object reads -------------------------

// BenchmarkProjectionPushdown measures a single-attribute projection
// over wide generated departments (8 projects × 15 members each)
// under each storage structure, executed two ways: Full fetches every
// subtuple of every object (the pre-cursor behavior, via
// Executor.FullPaths), Pruned fetches only the data subtuples the
// projection needs. pages/op is the number of page pin requests per
// query (an object read pins each of its pages once, so the two modes
// differ there only by the pages pruning never reaches), subtuples/op
// the number of records decoded; the benchmark fails if pruning does
// not decode strictly fewer subtuples than full retrieval.
func BenchmarkProjectionPushdown(b *testing.B) {
	const q = `SELECT x.DNO FROM x IN DEPARTMENTS`
	for _, layout := range []object.Layout{object.SS1, object.SS2, object.SS3} {
		b.Run(layout.String(), func(b *testing.B) {
			db, err := engineWithGen(b, layout)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			measure := func(full bool) engine.StmtStats {
				db.Executor().FullPaths = full
				tbl, _, err := db.Query(q)
				if err != nil {
					b.Fatal(err)
				}
				if tbl.Len() != benchCfg.Departments {
					b.Fatalf("rows = %d, want %d", tbl.Len(), benchCfg.Departments)
				}
				return db.LastStmtStats()
			}
			fullStats := measure(true)
			prunedStats := measure(false)
			if prunedStats.Decoded >= fullStats.Decoded || prunedStats.Fetches > fullStats.Fetches {
				b.Fatalf("%s: pruned execution decoded %d subtuples on %d pages, full %d on %d — pushdown saved nothing",
					layout, prunedStats.Decoded, prunedStats.Fetches, fullStats.Decoded, fullStats.Fetches)
			}
			for _, mode := range []struct {
				name  string
				full  bool
				stats engine.StmtStats
			}{{"Full", true, fullStats}, {"Pruned", false, prunedStats}} {
				b.Run(mode.name, func(b *testing.B) {
					db.Executor().FullPaths = mode.full
					for i := 0; i < b.N; i++ {
						if _, _, err := db.Query(q); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(mode.stats.Fetches), "pages/op")
					b.ReportMetric(float64(mode.stats.Decoded), "subtuples/op")
				})
			}
			db.Executor().FullPaths = false
		})
	}
}

// --- micro: subtuple store and B-tree -----------------------------------------

func BenchmarkSubtupleInsert(b *testing.B) {
	pool := buffer.NewPool(1 << 16)
	pool.Register(1, segment.NewMemStore())
	st := subtuple.New(subtuple.Config{Pool: pool, Seg: 1})
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Insert(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubtupleRead(b *testing.B) {
	pool := buffer.NewPool(1 << 16)
	pool.Register(1, segment.NewMemStore())
	st := subtuple.New(subtuple.Config{Pool: pool, Seg: 1})
	var tids []page.TID
	for i := 0; i < 1000; i++ {
		tid, _ := st.Insert(make([]byte, 64))
		tids = append(tids, tid)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Read(tids[i%len(tids)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBTreeInsertLookup(b *testing.B) {
	bt := index.NewBTree()
	keys := make([][]byte, 10000)
	for i := range keys {
		keys[i], _ = model.EncodeKeyValue(model.Int(int64(i)))
	}
	b.Run("Insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bt.Insert(keys[i%len(keys)], index.Addr{TID: page.TID{Page: uint32(i + 1)}})
		}
	})
	b.Run("Lookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if bt.Search(keys[i%len(keys)]) == nil {
				b.Fatal("missing")
			}
		}
	})
}

// BenchmarkQueryParse measures the SQL front end on the paper's most
// complex query (Fig 5).
func BenchmarkQueryParse(b *testing.B) {
	q := `
SELECT x.DNO, m.LNAME, m.SEX,
       EMPLOYEES = (SELECT z.EMPNO, u.LNAME, z.FUNCTION
                    FROM y IN x.PROJECTS, z IN y.MEMBERS, u IN EMPLOYEES_1NF
                    WHERE u.EMPNO = z.EMPNO)
FROM x IN DEPARTMENTS, m IN EMPLOYEES_1NF
WHERE m.EMPNO = x.MGRNO;`
	for i := 0; i < b.N; i++ {
		if _, err := sql.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}
