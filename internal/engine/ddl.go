package engine

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/page"
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
	db.mu.Lock()
	defer db.mu.Unlock()
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
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.cat.Table(name)
	if !ok {
		return fmt.Errorf("engine: no table %q", name)
	}
	if err := db.cat.DropTable(name); err != nil {
		return err
	}
	delete(db.mgrs, name)
	delete(db.flats, name)
	for _, ix := range db.indexes[name] {
		delete(db.indexByName, ix.Name)
	}
	delete(db.indexes, name)
	for _, ti := range db.textIdx[name] {
		delete(db.textByName, ti.Name)
	}
	delete(db.textIdx, name)
	_ = t
	db.bumpEpoch()
	return nil
}

// CreateIndex defines and builds a value index. using selects the
// address strategy (default HIERARCHICAL, AIM-II's conclusion in
// §4.2); DATA and ROOT exist to reproduce the paper's comparison.
func (db *DB) CreateIndex(name, table string, path []string, using string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
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
	def := &catalog.IndexDef{Name: name, Table: table, Path: path, Kind: uint8(kind)}
	if err := db.cat.AddIndex(def); err != nil {
		return err
	}
	if err := db.buildIndex(def); err != nil {
		db.cat.DropIndex(name)
		return err
	}
	db.bumpEpoch()
	return nil
}

// CreateTextIndex defines and builds a word-fragment text index.
func (db *DB) CreateTextIndex(name, table string, path []string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	def := &catalog.IndexDef{Name: name, Table: table, Path: path, Text: true}
	if err := db.cat.AddIndex(def); err != nil {
		return err
	}
	if err := db.buildIndex(def); err != nil {
		db.cat.DropIndex(name)
		return err
	}
	db.bumpEpoch()
	return nil
}

// DropIndex removes an index.
func (db *DB) DropIndex(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	def, ok := db.cat.Index(name)
	if !ok {
		return fmt.Errorf("engine: no index %q", name)
	}
	if err := db.cat.DropIndex(name); err != nil {
		return err
	}
	if def.Text {
		delete(db.textByName, name)
		list := db.textIdx[def.Table]
		for i, ti := range list {
			if ti.Name == name {
				db.textIdx[def.Table] = append(list[:i], list[i+1:]...)
				break
			}
		}
	} else {
		delete(db.indexByName, name)
		list := db.indexes[def.Table]
		for i, ix := range list {
			if ix.Name == name {
				db.indexes[def.Table] = append(list[:i], list[i+1:]...)
				break
			}
		}
	}
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
	if def.Text {
		db.textIdx[def.Table] = append(db.textIdx[def.Table], ti)
		db.textByName[def.Name] = ti
		return nil
	}
	db.indexes[def.Table] = append(db.indexes[def.Table], ix)
	db.indexByName[def.Name] = ix
	return nil
}

// BuildShadowIndex materializes an index definition from the table's
// base data without registering the result: exactly one of the two
// returns is non-nil (the text index for def.Text). The scrubber
// compares shadow against live to detect index/data divergence, and
// aimdoctor uses it to rebuild degraded indexes.
func (db *DB) BuildShadowIndex(def *catalog.IndexDef) (*index.Index, *textindex.Index, error) {
	t, ok := db.cat.Table(def.Table)
	if !ok {
		return nil, nil, fmt.Errorf("engine: no table %q", def.Table)
	}
	if def.Text {
		ti := textindex.New(def.Name, def.Table, def.Path)
		if err := db.forEachText(t, def.Path, func(text string, addr index.Addr) error {
			ti.Add(text, addr)
			return nil
		}); err != nil {
			return nil, nil, err
		}
		return nil, ti, nil
	}
	ix, err := index.New(index.Def{
		Name: def.Name, Table: def.Table, Path: def.Path, Kind: index.Kind(def.Kind),
	}, t.Type)
	if err != nil {
		return nil, nil, err
	}
	if t.Kind == catalog.Flat {
		fs := db.flats[t.Name]
		if err := fs.Scan(func(tid page.TID, tup model.Tuple) error {
			return ix.AddFlat(tid, tup, t.Type)
		}); err != nil {
			return nil, nil, err
		}
	} else {
		m := db.mgrs[t.Name]
		refs, err := db.dirRefs(t)
		if err != nil {
			return nil, nil, err
		}
		for _, ref := range refs {
			if err := ix.AddObject(m, t.Type, ref); err != nil {
				return nil, nil, err
			}
		}
	}
	return ix, nil, nil
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
	// Swap the incarnations under the heal barrier: aimdoctor (and
	// tests) rebuild while readers stream, and those readers resolve
	// indexes by name from the maps buildIndex rewrites. The barrier
	// order matches the statement path (healMu before db.mu).
	db.healMu.Lock()
	db.mu.Lock()
	db.detachIndex(name)
	err := db.buildIndex(def)
	db.mu.Unlock()
	db.healMu.Unlock()
	if err != nil {
		db.noteDegraded(name, err)
		db.bumpEpoch()
		return err
	}
	db.clearDegraded(name)
	db.bumpEpoch()
	return nil
}

// forEachText enumerates the occurrences of a text attribute across
// the whole table, producing the text and its hierarchical address.
func (db *DB) forEachText(t *catalog.Table, path []string, fn func(text string, addr index.Addr) error) error {
	if t.Kind == catalog.Flat {
		ai := t.Type.AttrIndex(path[0])
		if ai < 0 || len(path) != 1 {
			return fmt.Errorf("engine: bad text index path %v on flat table", path)
		}
		fs := db.flats[t.Name]
		return fs.Scan(func(tid page.TID, tup model.Tuple) error {
			if s, ok := tup[ai].(model.Str); ok {
				return fn(string(s), index.Addr{TID: tid})
			}
			return nil
		})
	}
	tablePath, _, atomPos, kind, err := index.ResolvePath(t.Type, path)
	if err != nil {
		return err
	}
	if kind != model.KindString {
		return fmt.Errorf("engine: text index requires a STRING attribute, got %s", kind)
	}
	m := db.mgrs[t.Name]
	refs, err := db.dirRefs(t)
	if err != nil {
		return err
	}
	for _, ref := range refs {
		err := m.EnumLevel(t.Type, ref, tablePath, func(dpath []page.MiniTID, atoms []model.Value) error {
			if atomPos >= len(atoms) {
				return nil // attribute added after this subtuple was written
			}
			if s, ok := atoms[atomPos].(model.Str); ok {
				return fn(string(s), index.Addr{TID: ref, Path: append([]page.MiniTID(nil), dpath...)})
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// forEachTextOfObject enumerates text occurrences of one object (for
// incremental maintenance).
func (db *DB) forEachTextOfObject(t *catalog.Table, ref page.TID, path []string, fn func(text string, addr index.Addr) error) error {
	tablePath, _, atomPos, _, err := index.ResolvePath(t.Type, path)
	if err != nil {
		return err
	}
	m := db.mgrs[t.Name]
	return m.EnumLevel(t.Type, ref, tablePath, func(dpath []page.MiniTID, atoms []model.Value) error {
		if atomPos >= len(atoms) {
			return nil
		}
		if s, ok := atoms[atomPos].(model.Str); ok {
			return fn(string(s), index.Addr{TID: ref, Path: append([]page.MiniTID(nil), dpath...)})
		}
		return nil
	})
}

// AlterTableAdd appends a new atomic attribute at the end of the
// level addressed by path (last component = new attribute name).
// Existing tuples read the attribute as null; no stored data is
// rewritten. Appending keeps every existing attribute position — and
// therefore every Mini Directory layout, data subtuple and index —
// valid, which is why only trailing atomic additions are supported.
func (db *DB) AlterTableAdd(table string, path []string, typ model.Type) error {
	db.mu.Lock()
	defer db.mu.Unlock()
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
