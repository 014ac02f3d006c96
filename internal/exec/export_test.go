package exec

// CopiedItems returns, by select item of the block, the FROM item and
// the attribute a row copies the item's atom from, and {-1, -1} for an
// item that is evaluated.
func CopiedItems(b *Block) [][2]int {
	out := make([][2]int, len(b.Sel.Items))
	for i := range out {
		out[i] = [2]int{-1, -1}
		if b.pos != nil && b.pos[i].tt != nil {
			out[i] = [2]int{b.pos[i].from, b.pos[i].attr}
		}
	}
	return out
}
