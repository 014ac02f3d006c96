// Package testdata reconstructs the example data of the paper —
// Tables 1 to 8 — as model values, plus a deterministic synthetic
// generator that scales the DEPARTMENTS workload for benchmarks.
//
// The paper prints the tables rotated and the scan is partially
// illegible; every value that the prose depends on (department
// numbers 314/218/417, manager 56194, budget 320,000, projects 17
// "CGA", 23 "HEAP", 25 "TEXT", 37 "NEBS", the consultants 56019,
// 89921 and 44512, equipment items 3278/PC/AT/PC of department 314,
// report 0179 authored by Jones, ...) is reproduced verbatim;
// remaining employee names and equipment rows are reconstructed
// plausibly and consistently. EMPLOYEES-1NF carries one tuple per
// project member and manager of Table 5, as §3 Example 7 requires.
package testdata

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
)

// Schema helpers keep fixture declarations short.
func atom(name string, k model.Kind) model.Attr {
	return model.Attr{Name: name, Type: model.AtomicType(k)}
}

func sub(name string, ordered bool, attrs ...model.Attr) model.Attr {
	return model.Attr{Name: name, Type: model.TableOf(ordered, attrs...)}
}

// DepartmentsType is the schema of the paper's Table 5:
//
//	{ DEPARTMENTS } (DNO, MGRNO, { PROJECTS } (PNO, PNAME,
//	  { MEMBERS } (EMPNO, FUNCTION)), BUDGET, { EQUIP } (QU, TYPE))
func DepartmentsType() *model.TableType {
	return model.MustTableType(false,
		atom("DNO", model.KindInt),
		atom("MGRNO", model.KindInt),
		sub("PROJECTS", false,
			atom("PNO", model.KindInt),
			atom("PNAME", model.KindString),
			sub("MEMBERS", false,
				atom("EMPNO", model.KindInt),
				atom("FUNCTION", model.KindString),
			),
		),
		atom("BUDGET", model.KindInt),
		sub("EQUIP", false,
			atom("QU", model.KindInt),
			atom("TYPE", model.KindString),
		),
	)
}

func member(empno int64, function string) model.Tuple {
	return model.Tuple{model.Int(empno), model.Str(function)}
}

func project(pno int64, pname string, members ...model.Tuple) model.Tuple {
	return model.Tuple{model.Int(pno), model.Str(pname), model.NewRelation(members...)}
}

func equip(qu int64, typ string) model.Tuple {
	return model.Tuple{model.Int(qu), model.Str(typ)}
}

// Departments returns the contents of Table 5: departments 314, 218
// and 417 with their projects, members, budgets and equipment.
func Departments() *model.Table {
	return model.NewRelation(
		model.Tuple{
			model.Int(314), model.Int(56194),
			model.NewRelation(
				project(17, "CGA",
					member(39582, "Leader"),
					member(56019, "Consultant"),
					member(69011, "Secretary"),
				),
				project(23, "HEAP",
					member(58912, "Staff"),
					member(90011, "Leader"),
					member(78218, "Secretary"),
					member(98602, "Staff"),
				),
			),
			model.Int(320000),
			model.NewRelation(equip(2, "3278"), equip(3, "PC/AT"), equip(1, "PC")),
		},
		model.Tuple{
			model.Int(218), model.Int(71349),
			model.NewRelation(
				project(25, "TEXT",
					member(92100, "Leader"),
					member(89921, "Consultant"),
					member(44512, "Consultant"),
					member(99023, "Secretary"),
					member(89211, "Staff"),
					member(12327, "Staff"),
				),
			),
			model.Int(440000),
			model.NewRelation(equip(2, "3278"), equip(1, "PC/AT"), equip(1, "3179"), equip(1, "PC")),
		},
		model.Tuple{
			model.Int(417), model.Int(91093),
			model.NewRelation(
				project(37, "NEBS",
					member(96001, "Staff"),
					member(75913, "Staff"),
					member(81193, "Leader"),
					member(87710, "Secretary"),
				),
			),
			model.Int(360000),
			model.NewRelation(
				equip(1, "4361"), equip(2, "PC/XT"), equip(2, "3278"),
				equip(1, "3270"), equip(1, "3179"), equip(1, "PC"),
			),
		},
	)
}

// DepartmentsFlatType is the schema of Table 1 (DEPARTMENTS-1NF).
func DepartmentsFlatType() *model.TableType {
	return model.MustTableType(false,
		atom("DNO", model.KindInt),
		atom("MGRNO", model.KindInt),
		atom("BUDGET", model.KindInt),
	)
}

// DepartmentsFlat returns the contents of Table 1.
func DepartmentsFlat() *model.Table {
	return model.NewRelation(
		model.Tuple{model.Int(314), model.Int(56194), model.Int(320000)},
		model.Tuple{model.Int(218), model.Int(71349), model.Int(440000)},
		model.Tuple{model.Int(417), model.Int(91093), model.Int(360000)},
	)
}

// ProjectsFlatType is the schema of Table 2 (PROJECTS-1NF).
func ProjectsFlatType() *model.TableType {
	return model.MustTableType(false,
		atom("PNO", model.KindInt),
		atom("PNAME", model.KindString),
		atom("DNO", model.KindInt),
	)
}

// ProjectsFlat returns the contents of Table 2.
func ProjectsFlat() *model.Table {
	return model.NewRelation(
		model.Tuple{model.Int(17), model.Str("CGA"), model.Int(314)},
		model.Tuple{model.Int(23), model.Str("HEAP"), model.Int(314)},
		model.Tuple{model.Int(25), model.Str("TEXT"), model.Int(218)},
		model.Tuple{model.Int(37), model.Str("NEBS"), model.Int(417)},
	)
}

// MembersFlatType is the schema of Table 3 (MEMBERS-1NF).
func MembersFlatType() *model.TableType {
	return model.MustTableType(false,
		atom("EMPNO", model.KindInt),
		atom("PNO", model.KindInt),
		atom("DNO", model.KindInt),
		atom("FUNCTION", model.KindString),
	)
}

// MembersFlat returns the contents of Table 3, derived attribute-
// faithfully from Table 5 (each member keyed by PNO and DNO).
func MembersFlat() *model.Table {
	t := model.NewRelation()
	for _, d := range Departments().Tuples {
		dno := d[0]
		for _, p := range d[2].(*model.Table).Tuples {
			pno := p[0]
			for _, m := range p[2].(*model.Table).Tuples {
				t.Append(model.Tuple{m[0], pno, dno, m[1]})
			}
		}
	}
	return t
}

// EquipFlatType is the schema of Table 4 (EQUIP-1NF).
func EquipFlatType() *model.TableType {
	return model.MustTableType(false,
		atom("DNO", model.KindInt),
		atom("QU", model.KindInt),
		atom("TYPE", model.KindString),
	)
}

// EquipFlat returns the contents of Table 4, derived from Table 5.
func EquipFlat() *model.Table {
	t := model.NewRelation()
	for _, d := range Departments().Tuples {
		dno := d[0]
		for _, e := range d[4].(*model.Table).Tuples {
			t.Append(model.Tuple{dno, e[0], e[1]})
		}
	}
	return t
}

// ReportsType is the schema of Table 6:
//
//	{ REPORTS } (REPNO, < AUTHORS > (NAME), TITLE,
//	  { DESCRIPTORS } (WORD, WEIGHT))
//
// AUTHORS is an ordered table (a list), so AUTHORS[1] denotes the
// first author (§3 Example 8).
func ReportsType() *model.TableType {
	return model.MustTableType(false,
		atom("REPNO", model.KindString),
		sub("AUTHORS", true, atom("NAME", model.KindString)),
		atom("TITLE", model.KindString),
		sub("DESCRIPTORS", false,
			atom("WORD", model.KindString),
			atom("WEIGHT", model.KindFloat),
		),
	)
}

func author(name string) model.Tuple { return model.Tuple{model.Str(name)} }

func descriptor(word string, weight float64) model.Tuple {
	return model.Tuple{model.Str(word), model.Float(weight)}
}

// Reports returns the contents of Table 6.
func Reports() *model.Table {
	return model.NewRelation(
		model.Tuple{
			model.Str("0179"),
			model.NewList(author("Jones")),
			model.Str("Concurrency and Concurrency Control"),
			model.NewRelation(
				descriptor("Concurrency Control", 0.6),
				descriptor("Recovery", 0.3),
				descriptor("Distribution", 0.1),
			),
		},
		model.Tuple{
			model.Str("0189"),
			model.NewList(author("Tilda"), author("Abraham")),
			model.Str("Text Editing and String Search"),
			model.NewRelation(
				descriptor("Editing", 0.7),
				descriptor("Formatting", 0.3),
			),
		},
		model.Tuple{
			model.Str("0292"),
			model.NewList(author("Meyer"), author("Racey")),
			model.Str("Branch and Bound Math Optimization"),
			model.NewRelation(
				descriptor("Optimization", 0.6),
				descriptor("Garbage Collection", 0.4),
			),
		},
	)
}

// Unnested returns the contents of Table 7, derived from Table 5.
func Unnested() *model.Table {
	t := model.NewRelation()
	for _, d := range Departments().Tuples {
		for _, p := range d[2].(*model.Table).Tuples {
			for _, m := range p[2].(*model.Table).Tuples {
				t.Append(model.Tuple{d[0], d[1], p[0], p[1], m[0], m[1]})
			}
		}
	}
	return t
}

// EmployeesType is the schema of Table 8 (EMPLOYEES-1NF).
func EmployeesType() *model.TableType {
	return model.MustTableType(false,
		atom("EMPNO", model.KindInt),
		atom("LNAME", model.KindString),
		atom("FNAME", model.KindString),
		atom("SEX", model.KindString),
	)
}

// Employees returns the contents of Table 8: one tuple per project
// member and manager appearing in Table 5 (20 employees). Names are
// reconstructions; employee numbers are the paper's.
func Employees() *model.Table {
	rows := []struct {
		empno        int64
		lname, fname string
		sex          string
	}{
		{39582, "Kramer", "Klaus", "male"},
		{56019, "Mayes", "Roy", "male"},
		{69011, "Andrews", "Andrea", "female"},
		{58912, "Walter", "Hans", "male"},
		{90011, "Berger", "Anna", "female"},
		{78218, "Huber", "Eva", "female"},
		{98602, "Lang", "Peter", "male"},
		{92100, "Fischer", "Karl", "male"},
		{89921, "Weber", "Marta", "female"},
		{44512, "Becker", "Paul", "male"},
		{99023, "Wolf", "Ines", "female"},
		{89211, "Koch", "Uwe", "male"},
		{12327, "Braun", "Max", "male"},
		{96001, "Deursen", "Hope", "female"},
		{75913, "Vogel", "Otto", "male"},
		{81193, "Schulz", "Rita", "female"},
		{87710, "Keller", "Ruth", "female"},
		{56194, "Schmidt", "Horst", "male"},
		{71349, "Hoffmann", "Jan", "male"},
		{91093, "Neumann", "Lisa", "female"},
	}
	t := model.NewRelation()
	for _, r := range rows {
		t.Append(model.Tuple{model.Int(r.empno), model.Str(r.lname), model.Str(r.fname), model.Str(r.sex)})
	}
	return t
}

// GenConfig parameterizes the synthetic DEPARTMENTS generator used by
// benchmarks: a scaled-up version of the Table 5 workload.
type GenConfig struct {
	Departments    int
	ProjsPerDept   int
	MembersPerProj int
	EquipPerDept   int
	Seed           int64
	// ConsultantEvery makes every n-th member a Consultant (0 = none);
	// used to control index selectivity in the Fig 7 experiments.
	ConsultantEvery int
	// ProjectNoRange, when > 0, draws project numbers from
	// [1, ProjectNoRange] so they repeat across departments — the
	// paper notes "project numbers need not be unique". 0 keeps them
	// unique.
	ProjectNoRange int
}

var functions = []string{"Leader", "Staff", "Secretary", "Engineer", "Analyst"}
var equipTypes = []string{"3278", "3270", "3179", "PC", "PC/AT", "PC/XT", "4361"}
var projectNames = []string{"CGA", "HEAP", "TEXT", "NEBS", "AIM", "CAD", "CAM", "CIM", "VLSI", "ROBOT"}

// GenDepartments deterministically generates an NF² DEPARTMENTS table
// with the shape of Table 5 at the configured scale.
func GenDepartments(cfg GenConfig) *model.Table {
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := model.NewRelation()
	empno := int64(10000)
	pno := int64(1)
	memberSeq := 0
	for d := 0; d < cfg.Departments; d++ {
		dno := int64(100 + d)
		projs := model.NewRelation()
		for p := 0; p < cfg.ProjsPerDept; p++ {
			members := model.NewRelation()
			for m := 0; m < cfg.MembersPerProj; m++ {
				memberSeq++
				fn := functions[rng.Intn(len(functions))]
				if cfg.ConsultantEvery > 0 && memberSeq%cfg.ConsultantEvery == 0 {
					fn = "Consultant"
				}
				members.Append(member(empno, fn))
				empno++
			}
			usePno := pno
			if cfg.ProjectNoRange > 0 {
				usePno = (pno-1)%int64(cfg.ProjectNoRange) + 1
			}
			name := fmt.Sprintf("%s-%d", projectNames[rng.Intn(len(projectNames))], pno)
			projs.Append(project(usePno, name, members.Tuples...))
			pno++
		}
		eq := model.NewRelation()
		for e := 0; e < cfg.EquipPerDept; e++ {
			eq.Append(equip(int64(1+rng.Intn(5)), equipTypes[rng.Intn(len(equipTypes))]))
		}
		t.Append(model.Tuple{
			model.Int(dno),
			model.Int(empno), // manager gets the next number
			projs,
			model.Int(int64(100000 + rng.Intn(900000))),
			eq,
		})
		empno++
	}
	return t
}
