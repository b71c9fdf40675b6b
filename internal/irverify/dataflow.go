package irverify

import (
	"specabsint/internal/cfg"
	"specabsint/internal/ir"
)

// forEachUse calls fn for every register the instruction reads.
func forEachUse(in *ir.Instr, fn func(ir.Reg)) {
	useVal := func(v ir.Value) {
		if !v.IsConst {
			fn(v.Reg)
		}
	}
	switch in.Op {
	case ir.OpNop, ir.OpBr, ir.OpConst, ir.OpFence:
	case ir.OpMov, ir.OpNeg, ir.OpNot, ir.OpBool, ir.OpRet, ir.OpCondBr:
		useVal(in.A)
	case ir.OpLoad:
		useVal(in.Idx)
	case ir.OpStore:
		useVal(in.Idx)
		useVal(in.A)
	default:
		if in.Op.IsBinop() {
			useVal(in.A)
			useVal(in.B)
		}
	}
}

// defOf returns the register the instruction writes, if any.
func defOf(in *ir.Instr) (ir.Reg, bool) {
	if writesValue(in.Op) {
		return in.Dst, true
	}
	return 0, false
}

// bitset is a fixed-width bit vector over dense cross-register indices.
type bitset []uint64

func newBitset(bits int) bitset { return make(bitset, (bits+63)/64) }
func (s bitset) set(i int)      { s[i/64] |= 1 << (i % 64) }
func (s bitset) has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }
func (s bitset) fill() {
	for i := range s {
		s[i] = ^uint64(0)
	}
}
func (s bitset) copyFrom(o bitset) { copy(s, o) }
func (s bitset) union(o bitset) {
	for i := range s {
		s[i] |= o[i]
	}
}
func (s bitset) intersect(o bitset) {
	for i := range s {
		s[i] &= o[i]
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

// checkDefBeforeUse verifies that every register read is preceded by a write
// on every path from entry, with Program.InputRegs (and SecretRegs) treated
// as defined at entry. It is a forward must-defined dataflow with
// intersection meet — run sparsely over cross-block registers only, because a
// dense NumRegs×blocks bitset is quadratic on heavily unrolled kernels.
// Registers live within a single block are checked with a linear scan.
func (v *verifier) checkDefBeforeUse() {
	prog, g := v.prog, v.g
	n := len(prog.Blocks)

	// Classify registers: a register referenced by more than one block is
	// cross-block; everything else is checked block-locally.
	const unseen = ir.BlockID(-1)
	regBlock := make([]ir.BlockID, prog.NumRegs)
	for i := range regBlock {
		regBlock[i] = unseen
	}
	cross := make([]bool, prog.NumRegs)
	touch := func(b ir.BlockID) func(ir.Reg) {
		return func(r ir.Reg) {
			if regBlock[r] == unseen {
				regBlock[r] = b
			} else if regBlock[r] != b {
				cross[r] = true
			}
		}
	}
	for _, b := range prog.Blocks {
		t := touch(b.ID)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			forEachUse(in, t)
			if d, ok := defOf(in); ok {
				t(d)
			}
		}
	}
	crossIdx := make([]int, prog.NumRegs)
	numCross := 0
	for r := range crossIdx {
		if cross[r] {
			crossIdx[r] = numCross
			numCross++
		} else {
			crossIdx[r] = -1
		}
	}

	isInput := make([]bool, prog.NumRegs)
	mark := func(r ir.Reg) {
		if int(r) >= 0 && int(r) < prog.NumRegs {
			isInput[r] = true
		}
	}
	for _, r := range prog.InputRegs {
		mark(r)
	}
	for _, r := range prog.SecretRegs {
		mark(r)
	}

	// Per-block gen sets over cross registers, plus entry seeds.
	words := (numCross + 63) / 64
	slab := make([]uint64, 3*n*words)
	gen := make([]bitset, n)
	inSet := make([]bitset, n)
	outSet := make([]bitset, n)
	for i := 0; i < n; i++ {
		gen[i] = bitset(slab[(3*i+0)*words : (3*i+1)*words])
		inSet[i] = bitset(slab[(3*i+1)*words : (3*i+2)*words])
		outSet[i] = bitset(slab[(3*i+2)*words : (3*i+3)*words])
	}
	for _, b := range prog.Blocks {
		for i := range b.Instrs {
			if d, ok := defOf(&b.Instrs[i]); ok && crossIdx[d] >= 0 {
				gen[b.ID].set(crossIdx[d])
			}
		}
	}
	seeds := newBitset(numCross)
	for r, input := range isInput {
		if input && crossIdx[r] >= 0 {
			seeds.set(crossIdx[r])
		}
	}

	// in[entry] = seeds; everything else starts at the universe and shrinks
	// under the intersection meet until a fixpoint.
	for _, b := range g.RPO {
		if b == prog.Entry {
			inSet[b].copyFrom(seeds)
		} else {
			inSet[b].fill()
		}
		outSet[b].copyFrom(inSet[b])
		outSet[b].union(gen[b])
	}
	tmp := newBitset(numCross)
	for changed := true; changed; {
		changed = false
		for _, b := range g.RPO {
			if b == prog.Entry {
				continue
			}
			first := true
			for _, p := range g.Preds[b] {
				if !g.Reachable(p) {
					continue
				}
				if first {
					tmp.copyFrom(outSet[p])
					first = false
				} else {
					tmp.intersect(outSet[p])
				}
			}
			if first || tmp.equal(inSet[b]) {
				continue
			}
			inSet[b].copyFrom(tmp)
			outSet[b].copyFrom(tmp)
			outSet[b].union(gen[b])
			changed = true
		}
	}

	// Check each reachable block linearly: cross registers against the
	// dataflow state, block-local registers against in-block order.
	live := newBitset(numCross)
	localGen := make([]int, prog.NumRegs)
	curGen := 0
	for _, bid := range g.RPO {
		b := prog.Blocks[bid]
		live.copyFrom(inSet[bid])
		curGen++
		for i := range b.Instrs {
			in := &b.Instrs[i]
			idx := i
			forEachUse(in, func(r ir.Reg) {
				if int(r) < 0 || int(r) >= prog.NumRegs {
					return // already reported by the operand check
				}
				defined := isInput[r]
				if !defined {
					if ci := crossIdx[r]; ci >= 0 {
						defined = live.has(ci)
					}
					if !defined {
						defined = localGen[r] == curGen
					}
				}
				if !defined {
					v.report(b, idx, "def-before-use",
						"register %s read before any write on some path from entry", r)
				}
			})
			if d, ok := defOf(in); ok && int(d) >= 0 && int(d) < prog.NumRegs {
				if ci := crossIdx[d]; ci >= 0 {
					live.set(ci)
				}
				localGen[d] = curGen
			}
		}
	}
}

// checkSpecFlows verifies the invariants the speculative engine derives lanes
// from: every reachable block has a defined immediate post-dominator (so
// every lane start gets a vn_stop), every unresolved conditional branch's
// vn_stop is distinct from the branch block itself, and both lane/rollback
// targets are real blocks. Resolved branches must name an in-range taken
// target. The post-dominator tree is computed over the full edge set —
// resolution never moves vn_stop placements.
func (v *verifier) checkSpecFlows() {
	prog, g := v.prog, v.g
	pdom := cfg.PostDominators(prog)
	n := len(prog.Blocks)
	for _, bid := range g.RPO {
		b := prog.Blocks[bid]
		if ip := pdom.ImmediatePostDom(bid); int(ip) < 0 || int(ip) > n {
			v.report(b, -1, "spec-flow",
				"reachable block has no immediate post-dominator (ipdom %d)", ip)
			continue
		}
		t := b.Terminator()
		if t == nil || t.Op != ir.OpCondBr {
			continue
		}
		ti := len(b.Instrs) - 1
		stop := pdom.ImmediatePostDom(bid)
		if !t.Resolved {
			if stop == bid {
				v.report(b, ti, "spec-flow", "branch block is its own vn_stop")
			}
			if t.TrueTarget == t.FalseTarget {
				// Both colors of this branch would walk the same path and the
				// rollback target would equal the predicted target: a
				// degenerate lane pair no front end emits. Lowering produces
				// an unconditional br instead.
				v.report(b, ti, "spec-flow",
					"both lane targets are block %s; branch should be unconditional",
					prog.Blocks[t.TrueTarget].Label)
			}
			// Both lane targets must be real, reachable blocks: the predicted
			// lane walks from one, the rollback state re-enters at the other.
			for _, tgt := range []ir.BlockID{t.TrueTarget, t.FalseTarget} {
				if !g.Reachable(tgt) {
					v.report(b, ti, "spec-flow",
						"lane target %s is unreachable in the graph", prog.Blocks[tgt].Label)
				}
			}
		} else {
			taken := t.TakenTarget()
			if int(taken) < 0 || int(taken) >= n {
				v.report(b, ti, "spec-flow", "resolved branch taken target %d out of range", taken)
			} else if !g.Reachable(taken) {
				v.report(b, ti, "spec-flow",
					"resolved branch taken target %s is unreachable", prog.Blocks[taken].Label)
			}
		}
	}
}
