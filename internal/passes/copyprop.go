package passes

import "specabsint/internal/ir"

// copyProp performs block-local forward copy propagation: within one block,
// a use of a mov destination is replaced by the mov source (register or
// constant), recorded transitively so chains collapse to their root. A
// mapping dies when either side of the copy is overwritten. Only register
// state is involved, so substitution is valid on every execution that
// reaches the instruction — architectural or wrong-path — and the mov itself
// becomes dead for the DCE pass to nop. It returns the number of rewritten
// operands.
func copyProp(prog *ir.Program) int {
	n := 0
	copyOf := make([]ir.Value, prog.NumRegs)
	stamp := make([]int, prog.NumRegs)
	gen := 0
	var active []ir.Reg // mov destinations with a live mapping this block
	for _, b := range prog.Blocks {
		gen++
		active = active[:0]
		for i := range b.Instrs {
			in := &b.Instrs[i]
			in.EachUse(func(v *ir.Value) {
				if stamp[v.Reg] == gen {
					*v = copyOf[v.Reg]
					n++
				}
			})
			if !in.Op.WritesDst() {
				continue
			}
			d := in.Dst
			// Overwriting d kills its own mapping and every mapping whose
			// source it is.
			stamp[d] = 0
			for _, a := range active {
				if stamp[a] == gen && !copyOf[a].IsConst && copyOf[a].Reg == d {
					stamp[a] = 0
				}
			}
			if in.Op == ir.OpMov && (in.A.IsConst || in.A.Reg != d) {
				copyOf[d] = in.A
				stamp[d] = gen
				active = append(active, d)
			}
		}
	}
	return n
}
