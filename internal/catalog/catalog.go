// Package catalog holds the database schema: table definitions
// (nested NF² types, storage layout, versioning), index definitions,
// and segment assignments. The catalog itself is persisted as a
// single subtuple in the meta segment, so it participates in the
// same buffering, logging and recovery as all other data.
package catalog

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/dberr"
	"repro/internal/model"
	"repro/internal/page"
	"repro/internal/segment"
	"repro/internal/subtuple"
)

// MetaSegment is the segment the catalog record lives in.
const MetaSegment segment.ID = 1

// TableKind distinguishes flat (1NF) tables from NF² tables stored as
// complex objects.
type TableKind uint8

// Table kinds.
const (
	Flat TableKind = iota + 1
	Complex
)

// Table describes one stored table.
type Table struct {
	Name string
	Type *model.TableType
	Seg  segment.ID
	Kind TableKind
	// Layout is the Mini Directory storage structure (an
	// object.Layout value) for complex tables.
	Layout uint8
	// Versioned tables keep history and answer ASOF queries.
	Versioned bool
	// DirHead is the first chunk of the table's object directory (the
	// persistent list of root MD subtuple TIDs) for complex tables.
	DirHead page.TID
}

// IndexDef describes an index (value or text).
type IndexDef struct {
	Name  string
	Table string
	Path  []string
	// Kind is an index.Kind value for value indexes.
	Kind uint8
	Text bool
}

// Catalog is the in-memory catalog with persistence.
type Catalog struct {
	mu      sync.Mutex
	st      *subtuple.Store
	self    page.TID
	tables  map[string]*Table
	indexes map[string]*IndexDef
	nextSeg segment.ID
}

type persisted struct {
	Tables  map[string]*Table
	Indexes map[string]*IndexDef
	NextSeg segment.ID
}

// Open loads (or bootstraps) the catalog from the meta store.
func Open(st *subtuple.Store) (*Catalog, error) {
	c := &Catalog{
		st:      st,
		tables:  make(map[string]*Table),
		indexes: make(map[string]*IndexDef),
		nextSeg: MetaSegment + 1,
	}
	self := page.TID{Page: 1, Slot: 0}
	// An empty meta segment cannot hold a catalog record — bootstrap
	// without probing it, so a transient read fault on a fresh store
	// can never masquerade as "no catalog yet".
	raw, err := []byte(nil), error(subtuple.ErrNotFound)
	if st.PageCount() >= 1 {
		raw, err = st.Read(self)
		if err != nil && !errors.Is(err, subtuple.ErrNotFound) {
			// The meta segment has pages, so a catalog record should be
			// there: a corrupt (or unreadable) one must surface, not
			// silently bootstrap an empty catalog over the damage.
			return nil, fmt.Errorf("catalog: read catalog record: %w", err)
		}
	}
	if err == nil {
		var p persisted
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&p); err != nil {
			return nil, fmt.Errorf("catalog: corrupt catalog record: %v: %w", err, dberr.ErrCorrupt)
		}
		c.tables = p.Tables
		c.indexes = p.Indexes
		c.nextSeg = p.NextSeg
		if c.tables == nil {
			c.tables = make(map[string]*Table)
		}
		if c.indexes == nil {
			c.indexes = make(map[string]*IndexDef)
		}
		c.self = self
		return c, nil
	}
	// Bootstrap: the catalog record becomes the very first subtuple,
	// at the conventional TID (1,0). When crash recovery wiped an
	// uncommitted meta segment, page 1 already exists (empty) and the
	// record must be placed there explicitly — a plain Insert would
	// allocate a fresh page.
	raw, err = c.encode()
	if err != nil {
		return nil, err
	}
	var tid page.TID
	if st.PageCount() >= 1 {
		tid, err = st.InsertOnPage(1, raw)
	} else {
		tid, err = st.Insert(raw)
	}
	if err != nil {
		return nil, err
	}
	if tid != self {
		return nil, fmt.Errorf("catalog: bootstrap record at %v, want %v", tid, self)
	}
	c.self = self
	return c, nil
}

func (c *Catalog) encode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(persisted{
		Tables:  c.tables,
		Indexes: c.indexes,
		NextSeg: c.nextSeg,
	})
	return buf.Bytes(), err
}

func (c *Catalog) saveLocked() error {
	raw, err := c.encode()
	if err != nil {
		return err
	}
	return c.st.Update(c.self, raw)
}

// Table returns the named table.
func (c *Catalog) Table(name string) (*Table, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[name]
	return t, ok
}

// Tables returns all tables sorted by name.
func (c *Catalog) Tables() []*Table {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AllocateSegment hands out the next free segment id and persists the
// counter.
func (c *Catalog) AllocateSegment() (segment.ID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextSeg
	c.nextSeg++
	return id, c.saveLocked()
}

// AddTable registers a table.
func (c *Catalog) AddTable(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[t.Name]; dup {
		return fmt.Errorf("catalog: table %q already exists", t.Name)
	}
	c.tables[t.Name] = t
	return c.saveLocked()
}

// UpdateTable persists changes to a table descriptor (e.g. DirHead).
func (c *Catalog) UpdateTable(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables[t.Name] = t
	return c.saveLocked()
}

// DropTable removes a table and its index definitions.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; !ok {
		return fmt.Errorf("catalog: no table %q", name)
	}
	delete(c.tables, name)
	for in, ix := range c.indexes {
		if ix.Table == name {
			delete(c.indexes, in)
		}
	}
	return c.saveLocked()
}

// Index returns the named index definition.
func (c *Catalog) Index(name string) (*IndexDef, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ix, ok := c.indexes[name]
	return ix, ok
}

// Indexes returns the definitions for one table, sorted by name.
func (c *Catalog) Indexes(table string) []*IndexDef {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*IndexDef
	for _, ix := range c.indexes {
		if ix.Table == table {
			out = append(out, ix)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AddIndex registers an index definition.
func (c *Catalog) AddIndex(ix *IndexDef) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.indexes[ix.Name]; dup {
		return fmt.Errorf("catalog: index %q already exists", ix.Name)
	}
	if _, ok := c.tables[ix.Table]; !ok {
		return fmt.Errorf("catalog: no table %q", ix.Table)
	}
	c.indexes[ix.Name] = ix
	return c.saveLocked()
}

// DropIndex removes an index definition.
func (c *Catalog) DropIndex(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.indexes[name]; !ok {
		return fmt.Errorf("catalog: no index %q", name)
	}
	delete(c.indexes, name)
	return c.saveLocked()
}
