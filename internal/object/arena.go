package object

import (
	"repro/internal/model"
)

// A read carves everything it allocates from its context (objCtx): the
// root node body, the page list, the scaffolding of the descent — level
// handles, C pointers, pointer lists, SS2 groups — and the containers of
// the tuple it returns — the root tuple, member values, Tuples
// slices and subtable headers — whose atoms go to the context's slab.
// A context made for one read hands each piece out freshly allocated,
// exactly as make would. An Arena is a context kept by an object cursor
// across the objects it reads: it rewinds the scaffolding for every
// object, and the containers as well when its caller keeps nothing of
// them past the next read (reuse). The atom slab is never rewound —
// rows keep atoms — but renewed: each object's atoms get chunks of
// their own, sized to what the object before used.

// bump hands out slices of T carved from one buffer. Without rewind
// every take allocates exactly what it hands out. rewind lets the next
// read carve the same memory again, zeroed, in one buffer as large as
// the last read needed in all.
type bump[T any] struct {
	buf  []T
	used int // elements handed out since the last rewind
	size int // capacity of the next buffer, at least
}

// take returns n zero elements, capped at n so that appending to them
// cannot reach a neighbour.
func (b *bump[T]) take(n int) []T {
	if cap(b.buf)-len(b.buf) < n {
		b.buf = make([]T, 0, max(n, b.size))
	}
	k := len(b.buf)
	b.buf = b.buf[:k+n]
	b.used += n
	return b.buf[k : k+n : k+n]
}

// rewind takes back everything handed out since the last rewind. Only a
// reader that knows nobody holds it any more may call it.
func (b *bump[T]) rewind() {
	if cap(b.buf) < b.used {
		b.buf, b.size = nil, b.used
	} else {
		clear(b.buf)
		b.buf = b.buf[:0]
	}
	b.used = 0
}

// rewind makes the context ready for the next object of a run: the
// scaffolding of the last one is taken back, its containers too when
// the caller keeps none of them, and the slab is renewed.
func (o *objCtx) rewind() {
	o.hs.rewind()
	o.minis.rewind()
	o.groups.rewind()
	if o.reuse {
		o.vals.rewind()
		o.tups.rewind()
		o.tbls.rewind()
	}
	o.slab.Renew()
}

// table returns an empty subtable header of the given ordering.
func (o *objCtx) table(ordered bool) *model.Table {
	t := &o.tbls.take(1)[0]
	*t = model.Table{Ordered: ordered}
	return t
}

// Arena is the read memory of one object cursor, reused across the
// objects it reads. It is used by one goroutine at a time and lives as
// long as its cursor: there is no pool behind it, so the allocation
// count of a statement stays a repeatable number.
type Arena struct{ o objCtx }

// NewArena returns an arena for a run of reads through m. With reuse
// the containers of a read — its tuple, subtable headers, Tuples slices
// and member tuples — are valid only until the next read through the
// arena, which overwrites them; the atoms stay valid for good. The
// caller may keep atoms only. Without reuse every read's containers are
// fresh and the caller's, as Manager.ReadPruned's are.
func (m *Manager) NewArena(reuse bool) *Arena {
	return &Arena{o: objCtx{m: m, reuse: reuse}}
}

// ReadPruned is Manager.ReadPruned through the arena.
func (a *Arena) ReadPruned(tt *model.TableType, ref Ref, asof int64, ps *PathSet) (model.Tuple, error) {
	o := &a.o
	o.rewind()
	body, err := o.load(ref, asof)
	if err != nil {
		return nil, err
	}
	defer o.done()
	h, err := o.rootHandle(tt, body)
	if err != nil {
		return nil, err
	}
	if ps == nil {
		ps = allSet
	}
	if ok, err := o.passes(tt, &h, ps); !ok || err != nil {
		return nil, err
	}
	return o.fetch(tt, &h, ps)
}
