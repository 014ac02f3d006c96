package core

import (
	"strings"
	"testing"

	"repro/internal/object"
	"repro/internal/testdata"
)

// Every table and figure must regenerate without error and contain
// its load-bearing content.
func TestRunAll(t *testing.T) {
	wantSnippets := map[string][]string{
		"T1": {"DEPARTMENTS_1NF", "314", "320000"},
		"T2": {"PROJECTS_1NF", "CGA", "HEAP", "TEXT", "NEBS"},
		"T3": {"MEMBERS_1NF", "56019", "Consultant"},
		"T4": {"EQUIP_1NF", "3278", "PC/AT"},
		"T5": {"{ DEPARTMENTS }", "{ PROJECTS }", "{ MEMBERS }", "56194", "Consultant"},
		"T6": {"< AUTHORS >", "Jones", "Concurrency"},
		"T7": {"RESULT", "39582", "Leader"},
		"T8": {"EMPLOYEES_1NF", "Schmidt"},
		"F1": {"GU  DEPARTMENT(DNO=314)", "GNP", "one NF² query"},
		"F2": {"identical to the stored Table 5"},
		"F3": {"{ PROJECTS }"},
		"F4": {"EMPLOYEES", "Kramer"},
		"F5": {"Schmidt"},
		"F6": {"SS1=7 > SS3=5 > SS2=2", "structure/data separation"},
		"F7": {"HIERARCHICAL", "DATA", "ROOT"},
		"F8": {"U (department 314", "resolve(T)"},
	}
	// F6's exact counts: SS1=7, SS3=5, SS2=3.
	wantSnippets["F6"] = []string{"SS1=7 > SS3=5 > SS2=3", "structure/data separation"}
	for _, id := range AllIDs() {
		rep, err := Run(id)
		if err != nil {
			t.Fatalf("Run(%s): %v", id, err)
		}
		if rep.ID != id || rep.Title == "" || rep.Text == "" {
			t.Errorf("Run(%s) produced incomplete report", id)
		}
		for _, snip := range wantSnippets[id] {
			if !strings.Contains(rep.Text, snip) {
				t.Errorf("Run(%s) output missing %q:\n%s", id, snip, rep.Text)
			}
		}
	}
	if _, err := Run("T99"); err == nil {
		t.Error("unknown id accepted")
	}
}

// The Fig 7 access-count ordering: hierarchical ≪ root ≪ data
// (full scan), with identical result counts.
func TestCompareIndexStrategiesShape(t *testing.T) {
	res, err := CompareIndexStrategies(testdata.GenConfig{
		Departments: 40, ProjsPerDept: 6, MembersPerProj: 10, EquipPerDept: 3,
		Seed: 11, ConsultantEvery: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]StrategyRow{}
	for _, r := range res.Rows {
		byName[r.Strategy] = r
		t.Logf("%-14s subtuples=%6d pages=%6d results=%d", r.Strategy, r.Decoded, r.Fetches, r.Results)
	}
	d, r, h := byName["DATA"], byName["ROOT"], byName["HIERARCHICAL"]
	if !(d.Results == r.Results && r.Results == h.Results) {
		t.Fatalf("strategies disagree on results: %v", res.Rows)
	}
	if h.Results == 0 {
		t.Fatal("no matching departments; workload too sparse")
	}
	if !(h.Decoded < r.Decoded && r.Decoded < d.Decoded) {
		t.Errorf("access counts not hier < root < data: hier=%d root=%d data=%d",
			h.Decoded, r.Decoded, d.Decoded)
	}
	if !(h.Fetches <= r.Fetches && r.Fetches < d.Fetches) {
		t.Errorf("pages pinned not hier <= root < data: hier=%d root=%d data=%d",
			h.Fetches, r.Fetches, d.Fetches)
	}
}

// The layout comparison orders MD subtuple counts SS1 > SS3 > SS2 at
// scale, with identical data bytes.
func TestCompareLayoutsShape(t *testing.T) {
	rows, err := CompareLayouts(testdata.GenConfig{
		Departments: 20, ProjsPerDept: 4, MembersPerProj: 8, EquipPerDept: 3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	by := map[object.Layout]LayoutRow{}
	for _, r := range rows {
		by[r.Layout] = r
		t.Logf("%s: md=%d mdBytes=%d ptrs=%d pages=%d build=%d read=%d pages/%d subtuples nav=%d pages/%d subtuples",
			r.Layout, r.MDSubtuples, r.MDBytes, r.Pointers, r.Pages,
			r.BuildFetches, r.ReadFetches, r.ReadDecoded, r.NavFetches, r.NavDecoded)
	}
	if !(by[object.SS1].MDSubtuples > by[object.SS3].MDSubtuples &&
		by[object.SS3].MDSubtuples > by[object.SS2].MDSubtuples) {
		t.Errorf("MD subtuple counts not SS1 > SS3 > SS2")
	}
	if by[object.SS1].DataBytes != by[object.SS2].DataBytes ||
		by[object.SS2].DataBytes != by[object.SS3].DataBytes {
		t.Errorf("data bytes differ across layouts (should be invariant)")
	}
	// A whole-object read decodes every subtuple once: more MD subtuples,
	// more decodes. Navigation to one member follows C pointers: SS3
	// reaches it through subtable MDs alone.
	if !(by[object.SS1].ReadDecoded > by[object.SS3].ReadDecoded &&
		by[object.SS3].ReadDecoded > by[object.SS2].ReadDecoded) {
		t.Errorf("subtuples decoded per full read not SS1 > SS3 > SS2")
	}
	// ... and pins each page of the object once, whatever the layout.
	for _, r := range rows {
		if r.ReadFetches != uint64(r.Pages) {
			t.Errorf("%s: full reads pinned %d pages, objects span %d", r.Layout, r.ReadFetches, r.Pages)
		}
	}
}

// Clustering: after interleaved growth, cold whole-object reads do
// fewer physical page reads under local address spaces than under
// Lorie's linked tuples.
func TestCompareClusteringShape(t *testing.T) {
	rows, err := CompareClustering(16, 5, 12, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%-32s physical reads=%5d fetches=%6d pages=%d",
			r.System, r.PhysicalReads, r.Fetches, r.PagesTotal)
	}
	if !(rows[0].PhysicalReads < rows[1].PhysicalReads) {
		t.Errorf("clustered reads (%d) not below scattered reads (%d)",
			rows[0].PhysicalReads, rows[1].PhysicalReads)
	}
}

// Checkout traffic grows with pages, far slower than subtuples.
func TestMeasureCheckoutShape(t *testing.T) {
	rows, err := MeasureCheckout([]int{10, 100, 1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("members=%4d subtuples=%5d pages=%3d relocate fetches=%d",
			r.Members, r.Subtuples, r.Pages, r.RelocateFetches)
	}
	last := rows[len(rows)-1]
	if last.RelocateFetches > uint64(last.Subtuples) {
		t.Errorf("relocation touched %d (>= subtuple count %d); should be page-proportional",
			last.RelocateFetches, last.Subtuples)
	}
	// Page-proportional: a handful of fetches per page.
	if last.RelocateFetches > uint64(8*last.Pages+16) {
		t.Errorf("relocation fetches %d not O(pages=%d)", last.RelocateFetches, last.Pages)
	}
}

// ASOF: reading the oldest version hops down the chain in O(log
// versions) records; the newest is a constant number of fetches.
func TestMeasureASOFShape(t *testing.T) {
	rows, err := MeasureASOF([]int{1, 10, 50, 1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("versions=%3d latest=%d oldest=%d", r.Versions, r.DecodedLatest, r.DecodedOldest)
	}
	if rows[2].DecodedOldest <= rows[0].DecodedOldest {
		t.Error("oldest-version cost did not grow with chain depth")
	}
	if rows[2].DecodedLatest > 4 {
		t.Errorf("latest-version read cost %d; should be constant", rows[2].DecodedLatest)
	}
	if r := rows[3]; r.DecodedOldest > 28 {
		t.Errorf("oldest of %d versions decodes %d records; the jump pointers allow 3⌈log₂(versions+1)⌉−2 = 28", r.Versions, r.DecodedOldest)
	}
}
