package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/buffer"
	"repro/internal/model"
	"repro/internal/netproto"
	"repro/internal/object"
	"repro/internal/plan"
	"repro/internal/segment"
	"repro/internal/sql"
	"repro/internal/subtuple"
)

// The statement path does not expose every layer, so after the traced
// pass the harness calls those layers' public functions itself, on keys
// sampled from the same seeded data, and times the calls. Nothing else
// is running, so a probe's mean is the layer's cost on a warm pool.

// timeEach runs fn n times and returns the mean duration in µs.
func timeEach(n int, fn func(i int) error) (float64, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return us(float64(time.Since(start))) / float64(n), nil
}

// probeLayers fills the object.*, index.*, textindex.* and netproto.*
// metrics for the database of the traced pass.
func probeLayers(e *env, m map[string]float64) error {
	n := e.sz.ProbeN
	mgr, ok := e.db.Manager(table)
	if !ok {
		return fmt.Errorf("bench: no object manager for %s", table)
	}
	refs, err := e.db.Refs(table)
	if err != nil {
		return err
	}
	rng := e.rng(99)
	rng.Shuffle(len(refs), func(i, j int) { refs[i], refs[j] = refs[j], refs[i] })
	ref := func(i int) object.Ref { return refs[i%len(refs)] }

	// The PathSet a real statement binds for its first range variable.
	st, err := sql.ParseOneStmt(e.w.probeSQL())
	if err != nil {
		return err
	}
	norm, err := sql.Normalize(st.Text)
	if err != nil {
		return err
	}
	prep, err := plan.Prepare(st, norm, e.db.Executor(), e.db.CatalogEpoch())
	if err != nil {
		return err
	}
	ps := prep.Paths[0]

	if m["object.read_us"], err = timeEach(n, func(i int) error {
		_, err := mgr.Read(e.tt, ref(i))
		return err
	}); err != nil {
		return err
	}
	if m["object.read_pruned_us"], err = timeEach(n, func(i int) error {
		_, err := mgr.ReadPruned(e.tt, ref(i), 0, ps)
		return err
	}); err != nil {
		return err
	}
	var subtuples int
	for i := 0; i < n; i++ {
		s, err := mgr.ObjectStats(e.tt, ref(i))
		if err != nil {
			return err
		}
		subtuples += s.MDSubtuples + s.DataSubtuples
	}
	m["object.subtuples_per_object"] = float64(subtuples) / float64(n)

	// Object mutation without the engine around it: a scratch manager
	// over a memory store takes the same departments, then one more
	// member each.
	pool := buffer.NewPool(4096)
	pool.Register(1, segment.NewMemStore())
	scratch := object.NewManager(subtuple.New(subtuple.Config{Pool: pool, Seg: 1}), object.SS3)
	var depts []model.Tuple
	for _, s := range e.shards {
		depts = append(depts, s.depts...)
	}
	inserted := make([]object.Ref, n)
	if m["object.insert_us"], err = timeEach(n, func(i int) error {
		inserted[i], err = scratch.Insert(e.tt, depts[i%len(depts)])
		return err
	}); err != nil {
		return err
	}
	if m["object.insert_member_us"], err = timeEach(n, func(i int) error {
		return scratch.InsertMember(e.tt, inserted[i], []object.Step{{Attr: aPROJECTS, Pos: 0}}, 2, -1,
			model.Tuple{model.Int(int64(9_000_000 + i)), model.Str("Staff")})
	}); err != nil {
		return err
	}

	// A workload without such an index reports zeros.
	for _, name := range []string{"index.lookup_us", "index.depth", "textindex.search_us", "textindex.addrs_per_search"} {
		m[name] = 0
	}
	if name, key := e.w.probeIndex(); name != "" {
		ix, ok := e.db.IndexByName(name)
		if !ok {
			return fmt.Errorf("bench: no index %s", name)
		}
		if m["index.lookup_us"], err = timeEach(n, func(i int) error {
			_, err := ix.Lookup(key(e, i))
			return err
		}); err != nil {
			return err
		}
		m["index.depth"] = float64(ix.Depth())
	}
	if name, mask := e.w.probeText(); name != "" {
		ti, ok := e.db.TextIndexByName(name)
		if !ok {
			return fmt.Errorf("bench: no text index %s", name)
		}
		addrs := 0
		if m["textindex.search_us"], err = timeEach(n, func(int) error {
			addrs += len(ti.Search(mask))
			return nil
		}); err != nil {
			return err
		}
		m["textindex.addrs_per_search"] = float64(addrs) / float64(n)
	}
	return probeWire(e, depts, m)
}

// probeWire times netproto on the rows the traced pass produced (or,
// for a workload that returns none, on generated departments): row
// encode, row decode, and one frame written to and read back from a
// kernel pipe.
func probeWire(e *env, depts []model.Tuple, m map[string]float64) error {
	rows := e.sampleRows
	if len(rows) == 0 {
		rows = depts[:min(len(depts), 64)]
	}
	n := e.sz.ProbeN
	encoded := make([][]byte, len(rows))
	var bytes int
	var err error
	if m["netproto.encode_row_us"], err = timeEach(n, func(i int) error {
		k := i % len(rows)
		encoded[k], err = (&netproto.Row{Tuple: rows[k]}).Encode()
		bytes += len(encoded[k])
		return err
	}); err != nil {
		return err
	}
	m["netproto.bytes_per_row"] = float64(bytes) / float64(n)
	for k := range encoded {
		if encoded[k] == nil {
			if encoded[k], err = (&netproto.Row{Tuple: rows[k]}).Encode(); err != nil {
				return err
			}
		}
	}
	if m["netproto.decode_row_us"], err = timeEach(n, func(i int) error {
		_, err := netproto.DecodeRow(encoded[i%len(rows)])
		return err
	}); err != nil {
		return err
	}
	r, w, err := os.Pipe()
	if err != nil {
		return err
	}
	defer r.Close()
	defer w.Close()
	m["netproto.frame_rt_us"], err = timeEach(n, func(i int) error {
		// Row payloads here are far below the pipe's buffer, so the
		// write completes before the read starts.
		if err := netproto.WriteFrame(w, netproto.TypeRow, encoded[i%len(rows)]); err != nil {
			return err
		}
		_, _, err := netproto.ReadFrame(r)
		return err
	})
	return err
}
