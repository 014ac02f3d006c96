package object

import (
	"fmt"

	"repro/internal/model"
)

// SalvageResult is the outcome of a best-effort read of a partially
// corrupt complex object.
type SalvageResult struct {
	// Tuple is the materialized object with every unreadable part
	// replaced: lost atomic values read as null, lost subtable members
	// are omitted. Nil when the root MD subtuple itself is unreadable
	// (nothing salvageable).
	Tuple model.Tuple
	// Lost describes each part that could not be read, as a
	// human-readable path plus the error.
	Lost []string
	// Complete reports that nothing was lost (the object read fully).
	Complete bool
}

// Salvage materializes as much of a complex object as remains
// readable. Unlike Read, it does not stop at the first corrupt
// subtuple: broken data subtuples yield null atoms, broken subtable
// MDs yield empty (or truncated) subtables, and every loss is
// recorded. The error return is non-nil only for faults outside the
// object (e.g. the store itself failing); corruption inside the
// object never fails the call.
func (m *Manager) Salvage(tt *model.TableType, ref Ref) (*SalvageResult, error) {
	res := &SalvageResult{}
	o, body, err := m.loadCtx(ref, 0)
	if err != nil {
		res.Lost = append(res.Lost, fmt.Sprintf("root MD subtuple %v: %v", ref, err))
		return res, nil
	}
	defer o.end()
	h, err := o.rootHandle(tt, body)
	if err != nil {
		res.Lost = append(res.Lost, fmt.Sprintf("root node of %v: %v", ref, err))
		return res, nil
	}
	res.Tuple = o.salvageLevel(tt, &h, "", res)
	res.Complete = len(res.Lost) == 0
	return res, nil
}

// salvageLevel is fetch with every read fault degraded to a recorded
// loss instead of an error.
func (o *objCtx) salvageLevel(tt *model.TableType, h *levelHandle, path string, res *SalvageResult) model.Tuple {
	tup := make(model.Tuple, len(tt.Attrs))
	if err := o.readAtomsInto(tup, tt, h.d); err != nil {
		res.Lost = append(res.Lost, fmt.Sprintf("data subtuple at %q: %v", path, err))
		nullAtoms(tup, tt.AtomicIndexes()) // all attributes read as null
	}
	for gi, ti := range tt.TableIndexes() {
		sub := tt.Attrs[ti].Type.Table
		subPath := path + "/" + tt.Attrs[ti].Name
		tbl := &model.Table{Ordered: sub.Ordered}
		tup[ti] = tbl
		hs, err := o.memberHandles(sub, h, gi)
		if err != nil {
			res.Lost = append(res.Lost, fmt.Sprintf("subtable MD at %q: %v", subPath, err))
			continue
		}
		for i := range hs {
			memberPath := fmt.Sprintf("%s[%d]", subPath, i)
			if !sub.Flat() {
				tbl.Append(o.salvageLevel(sub, &hs[i], memberPath, res))
				continue
			}
			mt := make(model.Tuple, len(sub.Attrs))
			if err := o.readAtomsInto(mt, sub, hs[i].d); err != nil {
				res.Lost = append(res.Lost, fmt.Sprintf("member %s: %v", memberPath, err))
				continue
			}
			tbl.Append(mt)
		}
	}
	return tup
}
