package object

import (
	"fmt"
	"strings"

	"repro/internal/model"
)

// DumpMD renders the Mini Directory tree of a complex object in the
// style of Fig 6 of the paper: MD subtuples in [brackets] (the
// figure's rectangles), data subtuples in (parentheses) (the ovals),
// with D and C pointer markers. The rendering makes the structural
// difference between SS1, SS2 and SS3 visible directly.
func (m *Manager) DumpMD(tt *model.TableType, ref Ref) (string, error) {
	o, _, h, err := m.open(tt, ref, 0, nil)
	if err != nil {
		return "", err
	}
	defer o.end()
	var b strings.Builder
	fmt.Fprintf(&b, "[root MD subtuple %v, layout %s, page list %v]\n", ref, m.layout, o.pages)
	if err := m.dumpLevel(o, tt, h, &b, "", true); err != nil {
		return "", err
	}
	return b.String(), nil
}

func (m *Manager) dumpLevel(o *objCtx, tt *model.TableType, h levelHandle, b *strings.Builder, indent string, isRoot bool) error {
	atoms, err := o.readAtoms(h.d)
	if err != nil {
		return err
	}
	fmt.Fprintf(b, "%s├─D→ (data %v: %s)\n", indent, h.d, atomsString(atoms))
	for gi, ti := range tt.TableIndexes() {
		sub := tt.Attrs[ti].Type.Table
		name := tt.Attrs[ti].Name
		switch m.layout {
		case SS1, SS3:
			fmt.Fprintf(b, "%s├─C→ [MD subtable %s %v]\n", indent, name, h.subC[gi])
		case SS2:
			fmt.Fprintf(b, "%s├─%s (%d member pointers inline)\n", indent, name, len(h.groups[gi]))
		}
		hs, err := o.memberHandles(sub, &h, gi)
		if err != nil {
			return err
		}
		for i, mh := range hs {
			childIndent := indent + "│  "
			if sub.Flat() {
				matoms, err := o.readAtoms(mh.d)
				if err != nil {
					return err
				}
				fmt.Fprintf(b, "%s├─D→ (data %v: %s)\n", childIndent, mh.d, atomsString(matoms))
				continue
			}
			switch m.layout {
			case SS1, SS2:
				fmt.Fprintf(b, "%s├─C→ [MD subobject #%d %v]\n", childIndent, i, mh.self)
			case SS3:
				fmt.Fprintf(b, "%s├─entry #%d (embedded: D + %d C pointers)\n", childIndent, i, len(mh.subC))
			}
			if err := m.dumpLevel(o, sub, mh, b, childIndent+"│  ", false); err != nil {
				return err
			}
		}
	}
	return nil
}

func atomsString(atoms []model.Value) string {
	parts := make([]string, len(atoms))
	for i, a := range atoms {
		if a == nil {
			parts[i] = "NULL"
		} else {
			parts[i] = a.String()
		}
	}
	return strings.Join(parts, " ")
}
