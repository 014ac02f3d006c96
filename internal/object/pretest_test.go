package object

import (
	"testing"

	"repro/internal/model"
	"repro/internal/testdata"
)

// verdict is a predicate that returns a fixed verdict.
type verdict struct{ holds, decided bool }

func (v verdict) Holds(model.Atom) (bool, bool) { return v.holds, v.decided }
func (v verdict) String() string                { return "p" }

// atomTest is a TestAtom over attribute attr whose predicate returns the
// given verdict.
func atomTest(attr int, holds, decided bool) *Test {
	return &Test{Op: TestAtom, Attr: attr, Pred: verdict{holds, decided}}
}

// The reader runs a path set's pre-test inside its window: an object the
// test rejects is reported as a nil tuple with no error after the
// subtuples up to the first deciding member were viewed, an object that
// passes — or that the test cannot decide on — is materialized as
// without the test, and no page stays pinned either way.
func TestPreTestInTheReader(t *testing.T) {
	tt := testdata.DepartmentsType()
	const projects, members = 2, 2 // PROJECTS in a department, MEMBERS in a project
	allLayouts(t, func(t *testing.T, m *Manager) {
		pool := m.Store().Pool()
		ref, err := m.Insert(tt, bigDepartment()) // 10 projects of 40 members
		if err != nil {
			t.Fatal(err)
		}
		whole, err := m.Read(tt, ref)
		if err != nil {
			t.Fatal(err)
		}
		member := func(holds, decided bool) *Test { return atomTest(1, holds, decided) }
		quant := func(op TestOp, attr int, c *Test) *Test { return &Test{Op: op, Attr: attr, Args: []*Test{c}} }
		for _, c := range []struct {
			name    string
			test    *Test
			pass    bool
			viewMax uint64 // subtuples the test may view when it rejects
		}{
			{"root atom false", atomTest(0, false, true), false, 1},
			{"root atom true", atomTest(0, true, true), true, 0},
			{"undecided", atomTest(0, false, false), true, 0},
			// The first member's data subtuple, after the MD subtuples
			// leading to it: under SS1 and SS2 those of all ten projects.
			{"ALL stops at the first counterexample", quant(TestAll, projects, quant(TestAll, members, member(false, true))), false, 13},
			{"EXISTS visits every member", quant(TestExists, projects, quant(TestExists, members, member(false, true))), false, 450},
			{"EXISTS stops at the first witness", quant(TestExists, projects, quant(TestExists, members, member(true, true))), true, 0},
			{"NOT, OR, AND", &Test{Op: TestOr, Args: []*Test{
				&Test{Op: TestNot, Args: []*Test{atomTest(0, true, true)}},
				&Test{Op: TestAnd, Args: []*Test{atomTest(1, true, true), atomTest(3, false, true)}},
			}}, false, 3},
		} {
			before := m.Store().DecodeCount()
			got, err := m.ReadPruned(tt, ref, 0, &PathSet{All: true, Test: c.test})
			viewed := m.Store().DecodeCount() - before
			switch {
			case err != nil:
				t.Errorf("%s: %v", c.name, err)
			case c.pass && !model.TupleEqual(got, whole):
				t.Errorf("%s: passed object read as %v", c.name, got)
			case !c.pass && got != nil:
				t.Errorf("%s: rejected object read as %v", c.name, got)
			case !c.pass && viewed > 1+c.viewMax:
				t.Errorf("%s: the rejection viewed %d subtuples besides the root, at most %d expected", c.name, viewed-1, c.viewMax)
			}
			if n := pool.PinnedCount(); n != 0 {
				t.Fatalf("%s: %d pages pinned", c.name, n)
			}
		}
	})
}
