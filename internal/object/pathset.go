package object

import (
	"strings"

	"repro/internal/model"
)

// PathSet selects the parts of a complex object a read must
// materialize. It mirrors the schema tree: a node covers one nesting
// level, Subs holds the required subtables keyed by attribute index.
// The zero value (no flags, no subs) requests only the subtable
// membership of the level — enough to count members and to bind range
// variables over them — without touching any data subtuple.
//
// This is the unit of projection pushdown promised by §4.1: since all
// structural information lives in MD subtuples and all data in data
// subtuples, a read guided by a PathSet touches exactly the MD
// subtuples along the requested paths plus the data subtuples of the
// levels whose atoms are requested, and leaves every other subtree
// unread.
type PathSet struct {
	// All requests the complete subtree (atoms and every subtable,
	// recursively). Subs and Atoms are ignored when set.
	All bool
	// Atoms requests the atomic attribute values of this level (they
	// share one data subtuple, so they are fetched together).
	Atoms bool
	// Subs holds the required subtables, keyed by the attribute index
	// of the table-valued attribute. A missing key means the subtable
	// is not read at all: its members appear as an empty table.
	Subs map[int]*PathSet
	// Test, on the root node of a read, is a pre-test the object must
	// pass to be materialized at all (nil: every object is). It only
	// narrows: a reader of the object re-checks whatever it was compiled
	// from, so it must be false only where that predicate is false.
	Test *Test
}

// AllPaths returns a PathSet requesting the complete object — the
// materialize-everything read.
func AllPaths() *PathSet { return &PathSet{All: true} }

// allSet is the shared descent node used under an All parent. It is
// never modified.
var allSet = &PathSet{All: true}

// Descend returns the sub-PathSet for the table-valued attribute at
// index attr, creating it if absent. The new node starts as
// membership-only.
func (ps *PathSet) Descend(attr int) *PathSet {
	if ps.All {
		return allSet
	}
	if ps.Subs == nil {
		ps.Subs = make(map[int]*PathSet)
	}
	s := ps.Subs[attr]
	if s == nil {
		s = &PathSet{}
		ps.Subs[attr] = s
	}
	return s
}

// MarkAtoms requests this level's atomic attribute values.
func (ps *PathSet) MarkAtoms() {
	if !ps.All {
		ps.Atoms = true
	}
}

// MarkAll requests the complete subtree under this node. A pre-test
// stays.
func (ps *PathSet) MarkAll() {
	ps.All = true
	ps.Atoms = false
	ps.Subs = nil
}

// Describe renders the set against a schema for EXPLAIN output, e.g.
// "{atoms, PROJECTS: {MEMBERS: {atoms}}}"; "*" is the full object and
// "{members}" a membership-only level.
func (ps *PathSet) Describe(tt *model.TableType) string {
	if ps == nil {
		return "{}"
	}
	if ps.All {
		return "*"
	}
	var parts []string
	if ps.Atoms {
		parts = append(parts, "atoms")
	}
	for _, ti := range tt.TableIndexes() {
		sub, ok := ps.Subs[ti]
		if !ok {
			continue
		}
		parts = append(parts, tt.Attrs[ti].Name+": "+sub.Describe(tt.Attrs[ti].Type.Table))
	}
	if len(parts) == 0 {
		return "{members}"
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// DescribeTest renders the pre-test for EXPLAIN output: "test …" or
// "no test".
func (ps *PathSet) DescribeTest() string {
	if ps == nil || ps.Test == nil {
		return "no test"
	}
	return "test " + ps.Test.String()
}

// sub returns the set of the subtable at attribute index attr: the
// shared all-set under an All node, nil when the subtable is not
// requested.
func (ps *PathSet) sub(attr int) *PathSet {
	if ps.All {
		return allSet
	}
	return ps.Subs[attr]
}
