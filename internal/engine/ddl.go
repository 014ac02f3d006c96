package engine

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/catalog"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/textindex"
)

// TableOptions refine CREATE TABLE.
type TableOptions struct {
	Versioned bool
	Layout    object.Layout // 0 = database default
}

// CreateTable defines a new table. Flat (1NF) types are stored
// without Mini Directories; nested types as complex objects under the
// chosen storage structure.
func (db *DB) CreateTable(name string, tt *model.TableType, opts TableOptions) error {
	defer db.ddlLock()()
	return db.createTableLocked(name, tt, opts)
}

func (db *DB) createTableLocked(name string, tt *model.TableType, opts TableOptions) error {
	if err := tt.Validate(); err != nil {
		return err
	}
	if _, exists := db.cat.Table(name); exists {
		return fmt.Errorf("engine: table %q already exists", name)
	}
	seg, err := db.cat.AllocateSegment()
	if err != nil {
		return err
	}
	layout := opts.Layout
	if layout == 0 {
		layout = db.opts.DefaultLayout
	}
	t := &catalog.Table{
		Name: name, Type: tt.Clone(), Seg: seg,
		Kind: catalog.Complex, Layout: uint8(layout), Versioned: opts.Versioned,
	}
	if tt.Flat() {
		t.Kind = catalog.Flat
	}
	if err := db.registerSegment(seg, opts.Versioned); err != nil {
		return err
	}
	if err := db.attachTable(t); err != nil {
		return err
	}
	if err := db.cat.AddTable(t); err != nil {
		return err
	}
	db.bumpEpoch()
	return nil
}

// DropTable removes a table, its data structures and its indexes.
// The segment's pages are abandoned (the prototype has no segment
// garbage collection).
func (db *DB) DropTable(name string) error {
	defer db.ddlLock()()
	return db.dropTableLocked(name)
}

func (db *DB) dropTableLocked(name string) error {
	if _, ok := db.cat.Table(name); !ok {
		return fmt.Errorf("engine: no table %q", name)
	}
	if err := db.cat.DropTable(name); err != nil {
		return err
	}
	delete(db.mgrs, name)
	delete(db.flats, name)
	live := db.live[name]
	for _, ix := range live.value {
		delete(db.indexByName, ix.Name)
	}
	for _, ti := range live.text {
		delete(db.textByName, ti.Name)
	}
	delete(db.live, name)
	db.bumpEpoch()
	return nil
}

// ddlLock takes the locks every table and index DDL runs under, in
// the lock order: applyMu (no writer is using the tables' stores or
// keeping the live indexes), then the exclusive heal barrier (no reader
// is resolving them). The SQL path holds both already around the
// bodies (the …Locked forms and addIndex).
func (db *DB) ddlLock() (unlock func()) {
	db.applyMu.Lock()
	db.healMu.Lock()
	return func() {
		db.healMu.Unlock()
		db.applyMu.Unlock()
	}
}

// CreateIndex defines and builds a value index. using selects the
// address strategy (default HIERARCHICAL, AIM-II's conclusion in
// §4.2); DATA and ROOT exist to reproduce the paper's comparison.
func (db *DB) CreateIndex(name, table string, path []string, using string) error {
	defer db.ddlLock()()
	return db.createIndexLocked(name, table, path, using)
}

func (db *DB) createIndexLocked(name, table string, path []string, using string) error {
	kind := index.Hierarchical
	switch strings.ToUpper(using) {
	case "", "HIERARCHICAL", "HIER":
		kind = index.Hierarchical
	case "ROOT":
		kind = index.RootTID
	case "DATA":
		kind = index.DataTID
	default:
		return fmt.Errorf("engine: unknown index strategy %q (DATA, ROOT or HIERARCHICAL)", using)
	}
	return db.addIndex(&catalog.IndexDef{Name: name, Table: table, Path: path, Kind: uint8(kind)})
}

// CreateTextIndex defines and builds a word-fragment text index.
func (db *DB) CreateTextIndex(name, table string, path []string) error {
	defer db.ddlLock()()
	return db.addIndex(&catalog.IndexDef{Name: name, Table: table, Path: path, Text: true})
}

// addIndex catalogs and builds an index definition.
func (db *DB) addIndex(def *catalog.IndexDef) error {
	if err := db.cat.AddIndex(def); err != nil {
		return err
	}
	if err := db.buildIndex(def); err != nil {
		db.cat.DropIndex(def.Name)
		return err
	}
	db.bumpEpoch()
	return nil
}

// DropIndex removes an index.
func (db *DB) DropIndex(name string) error {
	defer db.ddlLock()()
	return db.dropIndexLocked(name)
}

func (db *DB) dropIndexLocked(name string) error {
	if _, ok := db.cat.Index(name); !ok {
		return fmt.Errorf("engine: no index %q", name)
	}
	if err := db.cat.DropIndex(name); err != nil {
		return err
	}
	db.detachIndex(name)
	db.bumpEpoch()
	return nil
}

// buildIndex materializes an index definition from the table's data
// and registers it with the planner. Indexes are memory resident and
// rebuilt at startup — a deliberate prototype decision (cf. the
// deferred index maintenance work /DLPS85/ the paper cites).
func (db *DB) buildIndex(def *catalog.IndexDef) error {
	ix, ti, err := db.BuildShadowIndex(def)
	if err != nil {
		return err
	}
	t, _ := db.cat.Table(def.Table)
	live := db.live[def.Table]
	value, text := slices.Clip(live.value), slices.Clip(live.text)
	if def.Text {
		text = append(text, ti)
	} else {
		value = append(value, ix)
	}
	if live, err = newTableIndexes(t, value, text); err != nil {
		return err
	}
	db.live[def.Table] = live
	if def.Text {
		db.textByName[def.Name] = ti
	} else {
		db.indexByName[def.Name] = ix
	}
	return nil
}

// BuildShadowIndex materializes an index definition from the table's
// base data without registering the result: exactly one of the two
// returns is non-nil (the text index for def.Text). The scrubber
// compares shadow against live to detect index/data divergence, and
// aimdoctor uses it to rebuild degraded indexes. An NF² table is built
// by the walks index upkeep uses, one per object.
func (db *DB) BuildShadowIndex(def *catalog.IndexDef) (*index.Index, *textindex.Index, error) {
	t, ok := db.cat.Table(def.Table)
	if !ok {
		return nil, nil, fmt.Errorf("engine: no table %q", def.Table)
	}
	var ix *index.Index
	var ti *textindex.Index
	if def.Text {
		ti = textindex.New(def.Name, def.Table, def.Path)
	} else {
		var err error
		ix, err = index.New(index.Def{
			Name: def.Name, Table: def.Table, Path: def.Path, Kind: index.Kind(def.Kind),
		}, t.Type)
		if err != nil {
			return nil, nil, err
		}
	}
	var newest int64
	var err error
	switch {
	case t.Kind == catalog.Flat:
		newest, err = db.fillFlat(t, ix, ti)
	case def.Text:
		newest, err = db.fill(t, nil, []*textindex.Index{ti})
	default:
		newest, err = db.fill(t, []*index.Index{ix}, nil)
	}
	if err != nil {
		return nil, nil, err
	}
	// The index holds every entry of every instant from w on: from the
	// newest version stamp the fill read, each record it indexed reads as
	// it did, and every write this process made is stamped before a clock
	// reading taken now.
	w := max(db.opts.Clock(), newest)
	if ti != nil {
		ti.SetWatermark(w)
	} else {
		ix.Tree().SetWatermark(w)
	}
	return ix, ti, nil
}

// fillFlat builds a value index ix or a text index ti of a flat table:
// the address is the tuple's TID. newest is the scan's
// (flat.Cursor.Newest).
func (db *DB) fillFlat(t *catalog.Table, ix *index.Index, ti *textindex.Index) (newest int64, err error) {
	ai := -1
	if ti != nil {
		if ai = t.Type.AttrIndex(ti.Path[0]); ai < 0 || len(ti.Path) != 1 {
			return 0, fmt.Errorf("engine: bad text index path %v on flat table", ti.Path)
		}
	}
	c, err := db.flats[t.Name].NewCursor(0)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	for {
		tid, tup, ok, err := c.Next()
		if err != nil {
			return 0, err
		}
		if !ok {
			return c.Newest(), nil
		}
		if ix != nil {
			if err := ix.AddFlat(tid, tup, t.Type); err != nil {
				return 0, err
			}
		} else if s, ok := tup[ai].(model.Str); ok {
			ti.Add(string(s), index.Addr{TID: tid})
		}
	}
}

// RebuildIndex drops the live incarnation of a cataloged index and
// rebuilds it from base data, clearing any degradation record on
// success. aimdoctor's repair path uses it after quarantined objects
// have been salvaged or dropped.
func (db *DB) RebuildIndex(name string) error {
	def, ok := db.cat.Index(name)
	if !ok {
		return fmt.Errorf("engine: no index %q", name)
	}
	// Swap the incarnations under the DDL locks: aimdoctor (and tests)
	// rebuild while readers stream and writers run, readers resolve
	// indexes by name from the maps buildIndex rewrites, and a writer
	// must not update the old incarnation while the new one is built
	// from base data.
	unlock := db.ddlLock()
	db.detachIndex(name)
	err := db.buildIndex(def)
	unlock()
	if err != nil {
		db.noteDegraded(name, err)
		db.bumpEpoch()
		return err
	}
	db.clearDegraded(name)
	db.bumpEpoch()
	return nil
}

// AlterTableAdd appends a new atomic attribute at the end of the
// level addressed by path (last component = new attribute name).
// Existing tuples read the attribute as null; no stored data is
// rewritten. Appending keeps every existing attribute position — and
// therefore every Mini Directory layout, data subtuple and index —
// valid, which is why only trailing atomic additions are supported.
func (db *DB) AlterTableAdd(table string, path []string, typ model.Type) error {
	defer db.ddlLock()()
	return db.alterTableAddLocked(table, path, typ)
}

func (db *DB) alterTableAddLocked(table string, path []string, typ model.Type) error {
	if typ.Kind == model.KindTable || !typ.Kind.Atomic() {
		return fmt.Errorf("engine: ALTER TABLE ADD supports atomic attributes only")
	}
	if len(path) == 0 {
		return fmt.Errorf("engine: empty attribute path")
	}
	t, ok := db.cat.Table(table)
	if !ok {
		return fmt.Errorf("engine: no table %q", table)
	}
	newType := t.Type.Clone()
	level := newType
	for _, name := range path[:len(path)-1] {
		ai := level.AttrIndex(name)
		if ai < 0 {
			return fmt.Errorf("engine: no attribute %q in %s", name, level)
		}
		if level.Attrs[ai].Type.Kind != model.KindTable {
			return fmt.Errorf("engine: %q is not a subtable", name)
		}
		level = level.Attrs[ai].Type.Table
	}
	attrName := path[len(path)-1]
	if level.AttrIndex(attrName) >= 0 {
		return fmt.Errorf("engine: attribute %q already exists", attrName)
	}
	// The level's cached attribute positions (model.TableType) are keyed
	// on its attribute count, so the append invalidates them.
	level.Attrs = append(level.Attrs, model.Attr{Name: attrName, Type: typ})
	if err := newType.Validate(); err != nil {
		return err
	}
	t.Type = newType
	if err := db.cat.UpdateTable(t); err != nil {
		return err
	}
	// Flat stores cache the type; rewire.
	if err := db.attachTable(t); err != nil {
		return err
	}
	db.bumpEpoch()
	return nil
}
