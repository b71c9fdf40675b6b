package passes

import "specabsint/internal/ir"

// Dead-register elimination by Nop replacement.
//
// An instruction is eliminated when it is pure — touches no memory, cannot
// fault, is not a terminator — and its destination register is read by no
// later instruction on any CFG path. Liveness runs over the FULL edge set
// (both sides of Resolved branches): wrong-path speculative execution also
// executes instructions, and while it can never cross a resolved branch's
// dead edge, keeping the analysis edge-set maximal makes the conservatism
// obvious.
//
// Replacement, not removal: the Nop keeps the instruction's id and source
// line, so Finalize never re-runs, per-access analysis results stay keyed
// identically, the speculation budget still counts the slot, and the fetch
// stream and cycle estimate are unchanged — no memory or i-cache footprint
// is created or destroyed.

// dceEligible reports whether the instruction may be eliminated when dead.
// Loads stay (cache footprint), stores and terminators obviously stay, and
// division stays unless its divisor is a provably nonzero constant (nopping
// it would erase a runtime fault).
func dceEligible(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpConst, ir.OpMov, ir.OpNeg, ir.OpNot, ir.OpBool:
		return true
	case ir.OpDiv, ir.OpRem:
		return in.B.IsConst && in.B.Const != 0
	case ir.OpLoad, ir.OpStore, ir.OpBr, ir.OpCondBr, ir.OpRet, ir.OpNop:
		return false
	}
	return in.Op.IsBinop()
}

// dce runs elimination rounds until none fires (nopping an instruction can
// make its operands' definitions dead in turn).
func dce(prog *ir.Program) int {
	total := 0
	for {
		n := dceRound(prog)
		total += n
		if n == 0 {
			return total
		}
	}
}

func dceRound(prog *ir.Program) int {
	crossIdx, numCross := classifyCross(prog)
	words := (numCross + 63) / 64
	nBlocks := len(prog.Blocks)
	liveIn := make([]bitset, nBlocks)
	slab := make([]uint64, nBlocks*words)
	for i := 0; i < nBlocks; i++ {
		liveIn[i] = bitset(slab[i*words : (i+1)*words])
	}
	liveOut := func(b *ir.Block, dst bitset) {
		for i := range dst {
			dst[i] = 0
		}
		for _, s := range b.Succs() {
			dst.union(liveIn[s])
		}
	}

	// Backward liveness over cross registers to a fixpoint. Blocks are
	// processed in reverse layout order, which is near-postorder for lowered
	// programs, so convergence is fast.
	cur := newBitset(numCross)
	for changed := true; changed; {
		changed = false
		for bi := nBlocks - 1; bi >= 0; bi-- {
			b := prog.Blocks[bi]
			liveOut(b, cur)
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				in := &b.Instrs[i]
				if in.Op.WritesDst() {
					if ci := crossIdx[in.Dst]; ci >= 0 {
						cur.clear(ci)
					}
				}
				in.EachUse(func(v *ir.Value) {
					if ci := crossIdx[v.Reg]; ci >= 0 {
						cur.set(ci)
					}
				})
			}
			if !cur.equal(liveIn[b.ID]) {
				liveIn[b.ID].copyFrom(cur)
				changed = true
			}
		}
	}

	// Sweep: walk each block backward; a dead eligible definition becomes a
	// Nop (its uses are then not marked live, so in-block chains die in the
	// same sweep). Block-local registers are tracked with generation stamps.
	nops := 0
	localLive := make([]int, prog.NumRegs)
	gen := 0
	for bi := nBlocks - 1; bi >= 0; bi-- {
		b := prog.Blocks[bi]
		liveOut(b, cur)
		gen++
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			if in.Op.WritesDst() {
				d := in.Dst
				ci := crossIdx[d]
				isLive := localLive[d] == gen
				if ci >= 0 {
					isLive = cur.has(ci)
				}
				if !isLive && dceEligible(in) {
					*in = ir.Instr{Op: ir.OpNop, Line: in.Line, ID: in.ID}
					nops++
					continue
				}
				if ci >= 0 {
					cur.clear(ci)
				}
				localLive[d] = 0
			}
			in.EachUse(func(v *ir.Value) {
				if ci := crossIdx[v.Reg]; ci >= 0 {
					cur.set(ci)
				} else {
					localLive[v.Reg] = gen
				}
			})
		}
	}
	return nops
}
