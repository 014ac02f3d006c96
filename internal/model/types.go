// Package model defines the extended NF² (Non First Normal Form) data
// model of the AIM-II prototype: atomic types, tuples, and tables whose
// attribute values may themselves be tables — either unordered
// (relations) or ordered (lists).
//
// Terminology follows the paper (Dadam et al., SIGMOD 1986, §2):
//
//   - "table" generalizes "relation" (unordered table) and "list"
//     (ordered table);
//   - a table in first normal form (all attributes atomic) is a "flat"
//     or "1NF" table;
//   - a tuple of an NF² table is a "complex object"; tuples of its
//     subtables are "subobjects", which are again complex or flat.
package model

import (
	"fmt"
	"sync/atomic"
)

// Kind enumerates the kinds of attribute types in the extended NF²
// data model. All kinds except KindTable are atomic.
type Kind uint8

// The atomic kinds plus KindTable for table-valued (non-atomic)
// attributes.
const (
	KindInvalid Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindTime // an instant, stored as nanoseconds since the Unix epoch (UTC)
	KindTable
)

// String returns the DDL spelling of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	case KindTime:
		return "TIME"
	case KindTable:
		return "TABLE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Atomic reports whether the kind is atomic (not table-valued).
func (k Kind) Atomic() bool { return k != KindTable && k != KindInvalid }

// Type describes the type of an attribute. For atomic attributes only
// Kind is set; for table-valued attributes Kind is KindTable and Table
// describes the subtable's structure.
type Type struct {
	Kind  Kind
	Table *TableType // non-nil iff Kind == KindTable
}

// AtomicType returns the Type for an atomic kind. It panics if k is
// KindTable or KindInvalid; subtable types must be built with TableOf.
func AtomicType(k Kind) Type {
	if !k.Atomic() {
		panic("model: AtomicType called with non-atomic kind " + k.String())
	}
	return Type{Kind: k}
}

// TableOf returns a table-valued Type with the given tuple structure.
// If ordered is true the table is a list, otherwise a relation.
func TableOf(ordered bool, attrs ...Attr) Type {
	return Type{Kind: KindTable, Table: &TableType{Ordered: ordered, Attrs: attrs}}
}

// String returns the DDL spelling of the type.
func (t Type) String() string {
	if t.Kind != KindTable {
		return t.Kind.String()
	}
	return t.Table.String()
}

// Equal reports whether two types are structurally identical,
// including ordering of subtables and attribute names.
func (t Type) Equal(u Type) bool {
	if t.Kind != u.Kind {
		return false
	}
	if t.Kind != KindTable {
		return true
	}
	return t.Table.Equal(u.Table)
}

// Attr is one attribute (column) of a table type: a name plus a type
// that is either atomic or again a table.
type Attr struct {
	Name string
	Type Type
}

// String returns the DDL spelling "NAME TYPE" of the attribute.
func (a Attr) String() string { return a.Name + " " + a.Type.String() }

// TableType describes the structure of a table: whether it is ordered
// (a list) or unordered (a relation), and its attributes in declaration
// order. Attribute names must be unique within one TableType; nested
// levels form independent name scopes.
type TableType struct {
	Ordered bool
	Attrs   []Attr

	// pos caches the attribute positions by kind; see positions.
	pos atomic.Pointer[attrPositions]
}

// attrPositions splits a level's attribute positions into atomic and
// table-valued ones. n is len(Attrs) at the time it was computed:
// attributes are only ever appended (ALTER TABLE ADD, schema
// builders), so a cache whose n no longer matches is stale.
type attrPositions struct {
	n             int
	atomic, table []int
}

// positions returns the cached attribute positions, computing them on
// first use and again after an attribute was appended. Readers of one
// type on many goroutines share the result; the slices are read-only.
func (tt *TableType) positions() *attrPositions {
	if p := tt.pos.Load(); p != nil && p.n == len(tt.Attrs) {
		return p
	}
	p := &attrPositions{n: len(tt.Attrs)}
	for i, a := range tt.Attrs {
		if a.Type.Kind == KindTable {
			p.table = append(p.table, i)
		} else {
			p.atomic = append(p.atomic, i)
		}
	}
	tt.pos.Store(p)
	return p
}

// NewTableType builds a TableType and validates attribute-name
// uniqueness.
func NewTableType(ordered bool, attrs ...Attr) (*TableType, error) {
	tt := &TableType{Ordered: ordered, Attrs: attrs}
	if err := tt.Validate(); err != nil {
		return nil, err
	}
	return tt, nil
}

// MustTableType is NewTableType that panics on error; intended for
// statically known schemas in tests and fixtures.
func MustTableType(ordered bool, attrs ...Attr) *TableType {
	tt, err := NewTableType(ordered, attrs...)
	if err != nil {
		panic(err)
	}
	return tt
}

// Validate checks the table type recursively: at least implicit
// structure sanity, unique attribute names per level, and non-nil
// subtable types.
func (tt *TableType) Validate() error {
	seen := make(map[string]bool, len(tt.Attrs))
	for i, a := range tt.Attrs {
		if a.Name == "" {
			return fmt.Errorf("model: attribute %d has empty name", i)
		}
		if seen[a.Name] {
			return fmt.Errorf("model: duplicate attribute name %q", a.Name)
		}
		seen[a.Name] = true
		switch a.Type.Kind {
		case KindInvalid:
			return fmt.Errorf("model: attribute %q has invalid type", a.Name)
		case KindTable:
			if a.Type.Table == nil {
				return fmt.Errorf("model: table-valued attribute %q has nil table type", a.Name)
			}
			if err := a.Type.Table.Validate(); err != nil {
				return fmt.Errorf("model: in subtable %q: %w", a.Name, err)
			}
		}
	}
	return nil
}

// AttrIndex returns the position of the named attribute, or -1.
func (tt *TableType) AttrIndex(name string) int {
	for i, a := range tt.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Attr returns the named attribute and whether it exists.
func (tt *TableType) Attr(name string) (Attr, bool) {
	if i := tt.AttrIndex(name); i >= 0 {
		return tt.Attrs[i], true
	}
	return Attr{}, false
}

// AtomicIndexes returns the positions of the atomic attributes, in
// declaration order. These are the values stored together in one data
// subtuple ("first level atomic attribute values", §4.1). The slice is
// shared and must not be modified.
func (tt *TableType) AtomicIndexes() []int { return tt.positions().atomic }

// TableIndexes returns the positions of the table-valued attributes,
// in declaration order. These correspond to the subtables of a complex
// (sub)object and determine the "C" pointer groups of MD subtuples.
// The slice is shared and must not be modified.
func (tt *TableType) TableIndexes() []int { return tt.positions().table }

// Flat reports whether the table type is in first normal form, i.e.
// all attributes are atomic. Flat tables are stored without Mini
// Directories (§4.1).
func (tt *TableType) Flat() bool { return len(tt.positions().table) == 0 }

// Depth returns the nesting depth: 1 for a flat table, 1 + max depth
// of subtables otherwise.
func (tt *TableType) Depth() int {
	d := 1
	for _, a := range tt.Attrs {
		if a.Type.Kind == KindTable {
			if sub := a.Type.Table.Depth() + 1; sub > d {
				d = sub
			}
		}
	}
	return d
}

// Equal reports deep structural equality.
func (tt *TableType) Equal(other *TableType) bool {
	if tt == nil || other == nil {
		return tt == other
	}
	if tt.Ordered != other.Ordered || len(tt.Attrs) != len(other.Attrs) {
		return false
	}
	for i := range tt.Attrs {
		if tt.Attrs[i].Name != other.Attrs[i].Name || !tt.Attrs[i].Type.Equal(other.Attrs[i].Type) {
			return false
		}
	}
	return true
}

// String renders the table type in DDL-like form. Unordered tables
// (relations) use curly brackets, ordered tables (lists) use angle
// brackets, matching the paper's figures.
func (tt *TableType) String() string {
	open, close := "{", "}"
	if tt.Ordered {
		open, close = "<", ">"
	}
	s := open + " "
	for i, a := range tt.Attrs {
		if i > 0 {
			s += ", "
		}
		s += a.String()
	}
	return s + " " + close
}

// Clone returns a deep copy of the table type.
func (tt *TableType) Clone() *TableType {
	if tt == nil {
		return nil
	}
	cp := &TableType{Ordered: tt.Ordered, Attrs: make([]Attr, len(tt.Attrs))}
	for i, a := range tt.Attrs {
		na := Attr{Name: a.Name, Type: Type{Kind: a.Type.Kind}}
		if a.Type.Kind == KindTable {
			na.Type.Table = a.Type.Table.Clone()
		}
		cp.Attrs[i] = na
	}
	return cp
}
