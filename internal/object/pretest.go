package object

import (
	"errors"
	"strings"

	"repro/internal/model"
)

// TestOp is the kind of a pre-test node.
type TestOp uint8

// The pre-test nodes: boolean connectives, a predicate on one atom of a
// level, and the two quantifiers over a subtable of a level.
const (
	TestAnd TestOp = iota
	TestOr
	TestNot
	TestAtom
	TestExists
	TestAll
)

// Test is a predicate over one level of a complex object, decided on its
// encoded data in place — the pre-test a read runs before it builds
// anything. §4.1 keeps an object's structure in MD subtuples so that
// navigation needs no data; a Test extends that to values: the reader
// walks the MD subtuples, views only the data subtuples the predicate
// names, compares their atoms where they lie on the page, and stops at
// the first member that decides a quantifier. An object that fails the
// test is never materialized.
//
// A Test is compiled by the executor (which knows the query language)
// and is immutable once built; one Test serves any number of concurrent
// reads.
type Test struct {
	Op TestOp
	// Attr is the index (among the level's Attrs) of the atomic attribute
	// a TestAtom looks at, or of the subtable a quantifier ranges over.
	Attr int
	// Name is a quantifier's subtable name, for EXPLAIN.
	Name string
	// Pred decides a TestAtom on the attribute's encoded atom.
	Pred AtomPred
	// Args are the operands of TestAnd and TestOr, the operand of TestNot,
	// and the member condition of a quantifier.
	Args []*Test
}

// AtomPred is a predicate on one atom of a data subtuple, viewed in
// place.
type AtomPred interface {
	// Holds decides the predicate. decided is false when the atom is not
	// of a kind the predicate was compiled for: the read then gives up on
	// the test and materializes the object, so that evaluating the query
	// reports whatever the atom holds.
	Holds(a model.Atom) (holds, decided bool)
	// String renders the predicate for EXPLAIN.
	String() string
}

// String renders the test, e.g.
// "ALL PROJECTS ALL MEMBERS (FUNCTION = 'Consultant')".
func (t *Test) String() string {
	switch t.Op {
	case TestAnd, TestOr:
		sep := " AND "
		if t.Op == TestOr {
			sep = " OR "
		}
		parts := make([]string, len(t.Args))
		for i, a := range t.Args {
			parts[i] = a.String()
			if a.Op == TestAnd || a.Op == TestOr {
				parts[i] = "(" + parts[i] + ")"
			}
		}
		return strings.Join(parts, sep)
	case TestNot:
		return "NOT (" + t.Args[0].String() + ")"
	case TestExists, TestAll:
		q := "EXISTS "
		if t.Op == TestAll {
			q = "ALL "
		}
		if c := t.Args[0]; c.Op == TestExists || c.Op == TestAll {
			return q + t.Name + " " + c.String()
		}
		return q + t.Name + " (" + t.Args[0].String() + ")"
	}
	return t.Pred.String()
}

// errUndecided stops a pre-test that met an atom its predicate cannot
// judge; the object is then read and evaluated in full.
var errUndecided = errors.New("object: pre-test undecided")

// test decides t on the level of the object under h, of type tt. It
// views data subtuples only for the atoms t compares, and visits the
// members of a quantified subtable in stored order until one decides,
// a flat subtable's straight from their D pointers (members).
func (o *objCtx) test(t *Test, tt *model.TableType, h *levelHandle) (bool, error) {
	switch t.Op {
	case TestAnd, TestOr:
		for _, a := range t.Args {
			ok, err := o.test(a, tt, h)
			if err != nil || ok == (t.Op == TestOr) {
				return ok, err
			}
		}
		return t.Op == TestAnd, nil
	case TestNot:
		ok, err := o.test(t.Args[0], tt, h)
		return !ok, err
	case TestAtom:
		return o.testAtom(t, tt, h)
	}
	all := t.Op == TestAll
	gi, err := giOf(tt, t.Attr)
	if err != nil {
		return false, err
	}
	sub := tt.Attrs[t.Attr].Type.Table
	ms, err := o.members(sub, h, gi)
	if err != nil {
		return false, err
	}
	var flat levelHandle
	for i := range ms.len() {
		ok, err := o.test(t.Args[0], sub, ms.at(i, &flat))
		if err != nil {
			return false, err
		}
		if ok != all {
			return !all, nil // a witness, or a counterexample
		}
	}
	return all, nil
}

// testAtom views the level's data subtuple and applies the predicate to
// the attribute's atom in place.
func (o *objCtx) testAtom(t *Test, tt *model.TableType, h *levelHandle) (bool, error) {
	slots := tt.AtomicIndexes()
	pos := 0
	for pos < len(slots) && slots[pos] != t.Attr {
		pos++
	}
	raw, err := o.view(h.d)
	if err != nil {
		return false, err
	}
	a, err := model.AtomAt(raw, len(slots), pos)
	holds, decided := false, true
	if err == nil {
		holds, decided = t.Pred.Holds(a)
	}
	o.done()
	if err == nil && !decided {
		err = errUndecided
	}
	return holds, err
}

// passes runs ps's pre-test, if any, on the object under h: false means
// the object certainly fails the predicate the test was compiled from.
// A test that cannot decide passes the object.
func (o *objCtx) passes(tt *model.TableType, h *levelHandle, ps *PathSet) (bool, error) {
	if ps.Test == nil {
		return true, nil
	}
	ok, err := o.test(ps.Test, tt, h)
	if errors.Is(err, errUndecided) {
		return true, nil
	}
	return ok, err
}
