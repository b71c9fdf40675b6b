package passes

import "specabsint/internal/ir"

// bitset is a fixed-width bit vector over dense cross-register indices.
type bitset []uint64

func newBitset(bits int) bitset    { return make(bitset, (bits+63)/64) }
func (s bitset) set(i int)         { s[i/64] |= 1 << (i % 64) }
func (s bitset) clear(i int)       { s[i/64] &^= 1 << (i % 64) }
func (s bitset) has(i int) bool    { return s[i/64]&(1<<(i%64)) != 0 }
func (s bitset) copyFrom(o bitset) { copy(s, o) }
func (s bitset) union(o bitset) {
	for i := range s {
		s[i] |= o[i]
	}
}
func (s bitset) equal(o bitset) bool {
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// classifyCross assigns compact indices to cross-block registers (referenced
// by more than one block); block-local registers map to -1. Mirrors the
// interval analysis's sparse-environment trick: after full unrolling a
// program has tens of thousands of single-block temporaries, and per-block
// lattices must not carry them all.
func classifyCross(prog *ir.Program) (crossIdx []int, numCross int) {
	const unseen = ir.BlockID(-1)
	regBlock := make([]ir.BlockID, prog.NumRegs)
	for i := range regBlock {
		regBlock[i] = unseen
	}
	cross := make([]bool, prog.NumRegs)
	for _, b := range prog.Blocks {
		touch := func(r ir.Reg) {
			if regBlock[r] == unseen {
				regBlock[r] = b.ID
			} else if regBlock[r] != b.ID {
				cross[r] = true
			}
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			in.EachUse(func(v *ir.Value) { touch(v.Reg) })
			if in.Op.WritesDst() {
				touch(in.Dst)
			}
		}
	}
	crossIdx = make([]int, prog.NumRegs)
	for r := range crossIdx {
		if cross[r] {
			crossIdx[r] = numCross
			numCross++
		} else {
			crossIdx[r] = -1
		}
	}
	return crossIdx, numCross
}
