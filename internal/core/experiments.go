package core

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/buffer"
	"repro/internal/index"
	"repro/internal/lorie"
	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/page"
	"repro/internal/segment"
	"repro/internal/subtuple"
	"repro/internal/testdata"
)

// newObjectWorld builds an isolated pool + subtuple store + manager.
func newObjectWorld(poolPages int, layout object.Layout) (*buffer.Pool, *subtuple.Store, *object.Manager) {
	pool := buffer.NewPool(poolPages)
	pool.Register(1, segment.NewMemStore())
	st := subtuple.New(subtuple.Config{Pool: pool, Seg: 1})
	return pool, st, object.NewManager(st, layout)
}

// --- experiment: index address strategies (Fig 7) -----------------------

// StrategyRow is one row of the Fig 7 experiment.
type StrategyRow struct {
	Strategy string
	Decoded  uint64 // subtuples accessed (decoded) during evaluation
	Fetches  uint64 // pages pinned during evaluation
	Results  int
}

// StrategyResult is the outcome of CompareIndexStrategies.
type StrategyResult struct {
	TargetPNO int64
	Rows      []StrategyRow
}

// CompareIndexStrategies evaluates the paper's conjunctive query
// "departments having a project PNO = P with a Consultant" under the
// three index address implementations of §4.2, counting subtuple
// accesses and page pins. Project numbers repeat across departments (as the paper
// allows), so the PNO index alone returns a superset.
func CompareIndexStrategies(cfg testdata.GenConfig) (StrategyResult, error) {
	if cfg.ProjectNoRange == 0 {
		cfg.ProjectNoRange = cfg.ProjsPerDept * 3
	}
	data := testdata.GenDepartments(cfg)
	tt := testdata.DepartmentsType()
	pool, st, m := newObjectWorld(1<<16, object.SS3)
	var refs []object.Ref
	for _, tup := range data.Tuples {
		ref, err := m.Insert(tt, tup)
		if err != nil {
			return StrategyResult{}, err
		}
		refs = append(refs, ref)
	}
	// Pick the first project number that has a consultant somewhere.
	targetPNO := int64(-1)
	hasConsultant := func(proj model.Tuple) bool {
		for _, z := range proj[2].(*model.Table).Tuples {
			if z[1].(model.Str) == "Consultant" {
				return true
			}
		}
		return false
	}
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

	res := StrategyResult{TargetPNO: targetPNO}
	for _, kind := range []index.Kind{index.DataTID, index.RootTID, index.Hierarchical} {
		pnoIx, err := index.New(index.Def{Name: "pno", Path: []string{"PROJECTS", "PNO"}, Kind: kind}, tt)
		if err != nil {
			return res, err
		}
		fnIx, err := index.New(index.Def{Name: "fn", Path: []string{"PROJECTS", "MEMBERS", "FUNCTION"}, Kind: kind}, tt)
		if err != nil {
			return res, err
		}
		for _, ref := range refs {
			if err := pnoIx.AddObject(m, tt, ref); err != nil {
				return res, err
			}
			if err := fnIx.AddObject(m, tt, ref); err != nil {
				return res, err
			}
		}
		pool.ResetStats()
		decoded := st.DecodeCount()
		results := 0
		switch kind {
		case index.DataTID:
			// §4.2 first approach: the data-subtuple TIDs returned by
			// the indexes cannot locate the containing complex objects
			// ("there is no structural information about the MD tree
			// in the data subtuples"), so the query falls back to a
			// full scan of the table.
			for _, ref := range refs {
				tup, err := m.Read(tt, ref)
				if err != nil {
					return res, err
				}
				if matches(tup) {
					results++
				}
			}
		case index.RootTID:
			// §4.2 second approach: intersect the distinct candidate
			// objects of both indexes, then scan inside each candidate
			// to check whether the consultant works in project P.
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
					return res, err
				}
				if matches(tup) {
					results++
				}
			}
		case index.Hierarchical:
			// Fig 7b: the shared path prefix (P2 = F2) identifies the
			// common project; only the hit departments' data subtuples
			// are touched, no scan at all.
			pAddrs, _ := pnoIx.Lookup(model.Int(targetPNO))
			fAddrs, _ := fnIx.Lookup(model.Str("Consultant"))
			pairs := index.IntersectByPrefix(pAddrs, fAddrs, 1)
			seen := map[page.TID]bool{}
			for _, pr := range pairs {
				if seen[pr[0].TID] {
					continue
				}
				seen[pr[0].TID] = true
				// Retrieve DNO directly: one data-subtuple access via
				// the object's own data path.
				if _, err := m.ReadAtomsAt(tt, pr[0].TID); err != nil {
					return res, err
				}
				results++
			}
		}
		res.Rows = append(res.Rows, StrategyRow{
			Strategy: kind.String(),
			Decoded:  st.DecodeCount() - decoded,
			Fetches:  pool.Stats().Fetches,
			Results:  results,
		})
	}
	return res, nil
}

// --- experiment: storage structure comparison (Fig 6 at scale) ----------

// LayoutRow is one row of the SS1/SS2/SS3 comparison.
type LayoutRow struct {
	Layout        object.Layout
	MDSubtuples   int
	MDBytes       int
	DataBytes     int
	Pointers      int
	Pages         int
	BuildFetches  uint64
	ReadFetches   uint64 // whole-object reads over the table: pages pinned
	ReadDecoded   uint64 // ... and subtuples decoded
	NavFetches    uint64 // partial retrieval, atoms of one member per object: pages pinned
	NavDecoded    uint64 // ... and subtuples decoded
	CheckoutPages int    // pages copied by a page-level relocation
}

// CompareLayouts builds the same generated DEPARTMENTS workload under
// SS1, SS2 and SS3 and measures MD size, buffer traffic for builds,
// and pages pinned and subtuples decoded by whole-object reads and by
// partial navigation — the criteria of §4.1 and /DGW85/. An object
// read pins each page of the object once, so the three structures
// differ in subtuples decoded, not in pages.
func CompareLayouts(cfg testdata.GenConfig) ([]LayoutRow, error) {
	data := testdata.GenDepartments(cfg)
	tt := testdata.DepartmentsType()
	var rows []LayoutRow
	for _, layout := range []object.Layout{object.SS1, object.SS2, object.SS3} {
		pool, st, m := newObjectWorld(1<<16, layout)
		pool.ResetStats()
		var refs []object.Ref
		for _, tup := range data.Tuples {
			ref, err := m.Insert(tt, tup)
			if err != nil {
				return nil, err
			}
			refs = append(refs, ref)
		}
		row := LayoutRow{Layout: layout, BuildFetches: pool.Stats().Fetches}
		for _, ref := range refs {
			s, err := m.ObjectStats(tt, ref)
			if err != nil {
				return nil, err
			}
			row.MDSubtuples += s.MDSubtuples
			row.MDBytes += s.MDBytes
			row.DataBytes += s.DataBytes
			row.Pointers += s.Pointers
			row.Pages += s.Pages
		}
		pool.ResetStats()
		decoded := st.DecodeCount()
		for _, ref := range refs {
			if _, err := m.Read(tt, ref); err != nil {
				return nil, err
			}
		}
		row.ReadFetches, row.ReadDecoded = pool.Stats().Fetches, st.DecodeCount()-decoded
		pool.ResetStats()
		decoded = st.DecodeCount()
		for _, ref := range refs {
			// Partial retrieval: atoms of the second member of the
			// first project, touching only structural information on
			// the way (§4.1's navigation demand).
			if _, err := m.ReadAtomsAt(tt, ref, object.Step{Attr: 2, Pos: 0}, object.Step{Attr: 2, Pos: 1}); err != nil {
				return nil, err
			}
		}
		row.NavFetches, row.NavDecoded = pool.Stats().Fetches, st.DecodeCount()-decoded
		snap, err := m.Export(refs[0])
		if err != nil {
			return nil, err
		}
		row.CheckoutPages = len(snap.Pages)
		rows = append(rows, row)
	}
	return rows, nil
}

// --- experiment: clustering vs "on top" (Lorie) -------------------------

// ClusteringRow is one side of the clustering experiment.
type ClusteringRow struct {
	System        string
	PhysicalReads uint64 // cold reads of every object after growth
	Fetches       uint64
	PagesTotal    uint32
}

// CompareClustering grows complex objects incrementally under (a) the
// AIM-II object manager with local address spaces and (b) Lorie's
// linked flat tuples, then cold-reads every object and counts
// physical page reads. Interleaved growth scatters the "on top"
// objects across shared pages while the local address spaces keep
// each object's subtuples together (§4.1's clustering demand).
func CompareClustering(departments, projects, initialMembers, growthRounds int, seed int64) ([]ClusteringRow, error) {
	cfg := testdata.GenConfig{
		Departments: departments, ProjsPerDept: projects,
		MembersPerProj: initialMembers, EquipPerDept: 2, Seed: seed,
	}
	data := testdata.GenDepartments(cfg)
	tt := testdata.DepartmentsType()
	rng := rand.New(rand.NewSource(seed))
	empno := int64(900000)

	var rows []ClusteringRow

	// (a) AIM-II object manager.
	{
		pool, _, m := newObjectWorld(1<<16, object.SS3)
		var refs []object.Ref
		for _, tup := range data.Tuples {
			ref, err := m.Insert(tt, tup)
			if err != nil {
				return nil, err
			}
			refs = append(refs, ref)
		}
		for r := 0; r < growthRounds; r++ {
			for _, ref := range refs {
				proj := rng.Intn(projects)
				member := model.Tuple{model.Int(empno), model.Str("Staff")}
				empno++
				if err := m.InsertMember(tt, ref, []object.Step{{Attr: 2, Pos: proj}}, 2, -1, member); err != nil {
					return nil, err
				}
			}
		}
		if err := pool.FlushAll(); err != nil {
			return nil, err
		}
		// Cold-read every object: invalidate the pool between objects
		// so each read counts the distinct pages the object spans.
		pool.ResetStats()
		for _, ref := range refs {
			pool.InvalidateAll()
			if _, err := m.Read(tt, ref); err != nil {
				return nil, err
			}
		}
		st := pool.Stats()
		rows = append(rows, ClusteringRow{
			System: "AIM-II (local address spaces)", PhysicalReads: st.Reads,
			Fetches: st.Fetches, PagesTotal: pool.Store(1).PageCount(),
		})
	}

	// (b) Lorie linked tuples over the flat layer.
	{
		pool := buffer.NewPool(1 << 16)
		pool.Register(1, segment.NewMemStore())
		st := subtuple.New(subtuple.Config{Pool: pool, Seg: 1})
		ls := lorie.New(st, tt)
		rng := rand.New(rand.NewSource(seed))
		empno := int64(900000)
		var roots []page.TID
		for _, tup := range data.Tuples {
			root, err := ls.Insert(tup)
			if err != nil {
				return nil, err
			}
			roots = append(roots, root)
		}
		for r := 0; r < growthRounds; r++ {
			for _, root := range roots {
				proj := rng.Intn(projects)
				member := model.Tuple{model.Int(empno), model.Str("Staff")}
				empno++
				if err := ls.AppendMember(root, []int{2, 2}, []int{proj}, member); err != nil {
					return nil, err
				}
			}
		}
		if err := pool.FlushAll(); err != nil {
			return nil, err
		}
		pool.ResetStats()
		for _, root := range roots {
			pool.InvalidateAll()
			if _, err := ls.Read(root); err != nil {
				return nil, err
			}
		}
		s := pool.Stats()
		rows = append(rows, ClusteringRow{
			System: "Lorie linked tuples (on top)", PhysicalReads: s.Reads,
			Fetches: s.Fetches, PagesTotal: pool.Store(1).PageCount(),
		})
	}
	return rows, nil
}

// --- experiment: page-level checkout (§4.1) ------------------------------

// CheckoutRow measures one object size in the checkout experiment.
type CheckoutRow struct {
	Members         int
	Subtuples       int
	Pages           int
	RelocateFetches uint64
	// Refused is why page-level checkout refused the object (an
	// object.CheckoutError); empty when it moved.
	Refused string
}

// MeasureCheckout relocates objects of increasing size and reports
// the buffer traffic: proportional to the page count, not the
// subtuple count, because Mini TIDs survive page-level moves.
func MeasureCheckout(memberCounts []int) ([]CheckoutRow, error) {
	tt := testdata.DepartmentsType()
	var rows []CheckoutRow
	for _, n := range memberCounts {
		cfg := testdata.GenConfig{Departments: 1, ProjsPerDept: 1, MembersPerProj: n, EquipPerDept: 1, Seed: int64(n)}
		data := testdata.GenDepartments(cfg)
		pool, _, m := newObjectWorld(1<<16, object.SS3)
		ref, err := m.Insert(tt, data.Tuples[0])
		if err != nil {
			return nil, err
		}
		stats, err := m.ObjectStats(tt, ref)
		if err != nil {
			return nil, err
		}
		pool.ResetStats()
		row := CheckoutRow{Members: n, Subtuples: stats.MDSubtuples + stats.DataSubtuples, Pages: stats.Pages}
		var ce *object.CheckoutError
		if _, err := m.Relocate(ref); errors.As(err, &ce) {
			row.Refused = ce.Error()
		} else if err != nil {
			return nil, err
		}
		row.RelocateFetches = pool.Stats().Fetches
		rows = append(rows, row)
	}
	return rows, nil
}

// --- experiment: ASOF cost vs version-chain depth ------------------------

// ASOFRow measures one version depth.
type ASOFRow struct {
	Versions      int
	DecodedLatest uint64 // subtuple versions decoded reading the newest state
	DecodedOldest uint64 // ... and the oldest
}

// MeasureASOF updates one subtuple repeatedly and compares the cost
// of reading the newest versus the oldest state — the version chain
// walk of the subtuple manager (§5).
func MeasureASOF(depths []int) ([]ASOFRow, error) {
	var rows []ASOFRow
	for _, d := range depths {
		pool := buffer.NewPool(1 << 16)
		pool.Register(1, segment.NewMemStore())
		ts := int64(0)
		st := subtuple.New(subtuple.Config{Pool: pool, Seg: 1, Versioned: true, Clock: func() int64 { ts++; return ts }})
		tid, err := st.Insert([]byte("v0"))
		if err != nil {
			return nil, err
		}
		for i := 1; i <= d; i++ {
			if err := st.Update(tid, []byte(fmt.Sprintf("v%d", i))); err != nil {
				return nil, err
			}
		}
		base := st.DecodeCount()
		if _, _, err := st.ReadAsOf(tid, ts); err != nil {
			return nil, err
		}
		latest := st.DecodeCount() - base
		if _, _, err := st.ReadAsOf(tid, 1); err != nil {
			return nil, err
		}
		oldest := st.DecodeCount() - base - latest
		rows = append(rows, ASOFRow{Versions: d + 1, DecodedLatest: latest, DecodedOldest: oldest})
	}
	return rows, nil
}
