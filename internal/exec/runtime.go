// Package exec evaluates NF² SQL statements against stored tables.
// It implements the generalized SELECT-FROM-WHERE semantics of §3 of
// the paper — range variables over stored tables and over
// table-valued attributes at any nesting level, nested result
// construction (nest), flattening (unnest), EXISTS/ALL quantifiers,
// joins across nesting levels, list indexing, masked text search and
// ASOF time-version access — plus the DML operations (insert,
// update, delete of complex objects or arbitrary parts of them).
package exec

import (
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/page"
	"repro/internal/textindex"
)

// Runtime is the storage interface the executor runs against; the
// engine implements it. All reads accept an as-of timestamp (0 =
// current state). A tuple OpenScan or OpenRef returns, subtables
// included, is held by nothing else — no cache, no other caller, no
// stored or buffered state — so a result row may keep parts of it as
// they are (Block.take). The one exception is a read with reuse: a
// scan's containers — the tuple, its tables and their member tuples —
// are valid only until the cursor's next Next, which may overwrite them;
// its atoms stay valid for good. A tuple read with reuse may also carry
// null for a subtable ps does not request, where a read without it
// builds an empty table.
type Runtime interface {
	// Table resolves a stored table by name.
	Table(name string) (*catalog.Table, bool)
	// OpenScan opens a pull cursor over a stored table, yielding each
	// tuple with its reference (object root TID for complex tables,
	// tuple TID for flat ones) and fetching only the paths in ps (nil =
	// everything) of each object. Objects that fail ps's pre-test may be
	// left out. The cursor must hold no buffer pages between calls, so
	// abandoning it leaks nothing. reuse says that the caller keeps
	// nothing of a tuple but its atoms past the next Next, so the cursor
	// may recycle the tuple's containers for the next object.
	OpenScan(t *catalog.Table, asof int64, ps *object.PathSet, reuse bool) (ScanCursor, error)
	// OpenRef reads one tuple by reference, fetching only the paths in
	// ps (nil = everything). It returns a nil tuple and no error for an
	// object that fails ps's pre-test. reuse says, as for OpenScan, that
	// the caller keeps nothing of the tuple but its atoms.
	OpenRef(t *catalog.Table, ref page.TID, asof int64, ps *object.PathSet, reuse bool) (model.Tuple, error)
	// Indexes returns the live value indexes of a table (none where the
	// runtime reads at an instant nobody maintains them for).
	Indexes(table string) []*index.Index
	// TextIndexes returns the live text indexes of a table.
	TextIndexes(table string) []*textindex.Index
	// IndexCut holds the live indexes at one cut of the committed state
	// until release is called: every index lookup in between, and every
	// call of changed, observes the same instant. The indexes describe the
	// current state; changed(table) lists the references of table whose
	// entries may disagree with what this runtime reads (objects written
	// since its snapshot), which the planner adds to every candidate list
	// of that table. changed is nil when the indexes answer for the
	// runtime's reads exactly.
	IndexCut() (changed func(table string) []page.TID, release func())

	// InsertTuple adds a tuple to a stored table.
	InsertTuple(t *catalog.Table, tup model.Tuple) error
	// DeleteTuple removes a whole tuple/object.
	DeleteTuple(t *catalog.Table, ref page.TID) error
	// UpdateAtoms overwrites the atomic attributes of the (sub)object
	// addressed by steps (empty steps = the top level; for flat
	// tables vals covers all attributes).
	UpdateAtoms(t *catalog.Table, ref page.TID, steps []object.Step, vals []model.Value) error
	// InsertMember adds a member tuple to a subtable of an object.
	InsertMember(t *catalog.Table, ref page.TID, steps []object.Step, attr int, member model.Tuple) error
	// DeleteMember removes a subtable member.
	DeleteMember(t *catalog.Table, ref page.TID, steps []object.Step, attr, pos int) error

	// ParseTime converts an ASOF literal into a timestamp.
	ParseTime(v model.Value) (int64, error)
	// TName mints the tuple name (§4.3) of the (sub)object addressed
	// by ref and steps, as an opaque token.
	TName(t *catalog.Table, ref page.TID, steps []object.Step) (string, error)
}

// ScanCursor is a pull iterator over a stored table, produced by
// Runtime.OpenScan. Next returns false when the scan is exhausted;
// implementations pin buffer pages only inside a single Next call.
type ScanCursor interface {
	Next() (page.TID, model.Tuple, bool, error)
	Close() error
}

// Candidates restricts the scan of one FROM item to a pre-computed
// reference list, produced by the planner from index information. The
// candidate lists of a statement are a slice indexed by FROM item; an
// element whose Used is zero (or a nil slice) leaves its item to a scan.
// Used marks the planner's access choices of the item that answered (bit
// j: choice j), Changed that the references written since the snapshot
// joined the list. An execution keeps only these; the text EXPLAIN
// prints is rendered from them by the planner, when asked.
type Candidates struct {
	Refs    []page.TID
	Used    uint64
	Changed bool
}

// Executor binds statements (Bind) and runs bound ones (OpenPrepared,
// ExecPreparedDML) against a runtime. Access paths come from the caller,
// as candidate lists: the executor never plans.
type Executor struct {
	RT Runtime
	// FullPaths disables projection pushdown: every stored object is
	// fetched completely, as the pre-cursor executor did. It exists as
	// a verification aid (the property tests compare pruned against
	// full execution) and as an escape hatch.
	FullPaths bool
}

// binding is the current value of one range variable, with the
// provenance needed for DML through the variable.
type binding struct {
	tt  *model.TableType
	tup model.Tuple

	// Stored provenance (zero when the tuple is derived data):
	tbl   *catalog.Table
	ref   page.TID
	steps []object.Step // navigation from the object root to tup
	asof  int64
}

// env is one scope of a chained variable scope: the range variables a
// FROM list or a quantifier binds, as a short slice searched from the
// innermost scope outward (a scope binds one to a handful of names, so a
// string compare per slot beats hashing). Every scope of a statement
// carries the statement's bound `?` arguments and the block whose
// expressions it evaluates, copied from its parent when it is opened, so
// neither is looked for along the chain.
type env struct {
	slots  []slot
	parent *env
	params []model.Value // bound `?` arguments
	blk    *Block        // the enclosing block's bind products; nil outside a block
}

type slot struct {
	name string
	b    *binding
}

// rootEnv creates a statement root scope carrying bound parameters and,
// for a statement with a FROM list, its block.
func rootEnv(params []model.Value, blk *Block) *env {
	return &env{params: params, blk: blk}
}

// param resolves a 1-based `?` ordinal.
func (e *env) param(ord int) (model.Value, bool) {
	if ord >= 1 && ord <= len(e.params) {
		return e.params[ord-1], true
	}
	return nil, false
}

func (e *env) lookup(name string) (*binding, bool) {
	for s := e; s != nil; s = s.parent {
		for i := range s.slots {
			if s.slots[i].name == name {
				return s.slots[i].b, true
			}
		}
	}
	return nil, false
}

// bind points name at b in this scope, replacing an earlier binding of
// the same name here.
func (e *env) bind(name string, b *binding) {
	for i := range e.slots {
		if e.slots[i].name == name {
			e.slots[i].b = b
			return
		}
	}
	e.slots = append(e.slots, slot{name, b})
}

// ParseTimeValue is the default ASOF literal convention: Int values
// are raw timestamps (logical ticks or nanoseconds), Time values
// their instant, Str values dates in RFC3339, "2006-01-02 15:04:05"
// or "2006-01-02" form (interpreted in UTC).
func ParseTimeValue(v model.Value) (int64, error) {
	switch x := v.(type) {
	case model.Int:
		return int64(x), nil
	case model.Time:
		return int64(x), nil
	case model.Str:
		for _, layout := range []string{time.RFC3339Nano, time.RFC3339, "2006-01-02 15:04:05", "2006-01-02"} {
			if t, err := time.Parse(layout, string(x)); err == nil {
				return t.UnixNano(), nil
			}
		}
		return 0, fmt.Errorf("exec: cannot parse timestamp %q", string(x))
	}
	return 0, fmt.Errorf("exec: cannot use %v as a timestamp", v)
}
