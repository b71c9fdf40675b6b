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
//
// Every definition takes a fresh write stamp, and a copy records its
// source's stamp, so overwriting a source kills each mapping from it
// without a scan: a mapping holds while its source's stamp is unchanged.
func copyProp(prog *ir.Program) int {
	n := 0
	copyOf := make([]ir.Value, prog.NumRegs)
	mapped := make([]int, prog.NumRegs)   // block generation of r's mapping
	srcStamp := make([]int, prog.NumRegs) // written[src] when r's copy was made
	written := make([]int, prog.NumRegs)  // stamp of r's latest definition
	gen, stamp := 0, 0
	live := func(r ir.Reg) bool {
		src := copyOf[r]
		return mapped[r] == gen && (src.IsConst || written[src.Reg] == srcStamp[r])
	}
	for _, b := range prog.Blocks {
		gen++
		for i := range b.Instrs {
			in := &b.Instrs[i]
			in.EachUse(func(v *ir.Value) {
				if live(v.Reg) {
					*v = copyOf[v.Reg]
					n++
				}
			})
			if !in.Op.WritesDst() {
				continue
			}
			d := in.Dst
			// Overwriting d kills its own mapping and, through the new
			// stamp, every mapping whose source it is.
			stamp++
			written[d] = stamp
			mapped[d] = 0
			if in.Op == ir.OpMov && (in.A.IsConst || in.A.Reg != d) {
				copyOf[d] = in.A
				mapped[d] = gen
				if !in.A.IsConst {
					srcStamp[d] = written[in.A.Reg]
				}
			}
		}
	}
	return n
}
