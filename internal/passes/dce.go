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

// dce runs elimination rounds until none can fire. Nopping an instruction
// can make its operands' definitions dead in turn. A round's backward sweep
// already kills such chains within a block, since it never marks a nopped
// instruction's uses; only a nopped reader of a cross-block register leaves
// definitions that the round's liveness still counted live. So another
// round runs only after a round nopped such a reader.
func dce(prog *ir.Program) int {
	total := 0
	for {
		n, again := dceRound(prog)
		total += n
		if !again {
			return total
		}
	}
}

// dceRound runs one liveness fixpoint and sweep. It returns the number of
// instructions nopped and whether any of them read a cross-block register.
func dceRound(prog *ir.Program) (nops int, crossReads bool) {
	crossIdx, numCross := prog.CrossRegs()
	words := (numCross + 63) / 64
	nBlocks := len(prog.Blocks)
	// Per block, over cross registers: liveIn, the registers it reads before
	// writing them (uses), and those it writes (defs), so that
	// liveIn = uses ∪ (liveOut \ defs) without walking its instructions.
	liveIn := make([]bitset, nBlocks)
	uses := make([]bitset, nBlocks)
	defs := make([]bitset, nBlocks)
	slab := make([]uint64, 3*nBlocks*words)
	for i := 0; i < nBlocks; i++ {
		o := 3 * i * words
		liveIn[i] = bitset(slab[o : o+words])
		uses[i] = bitset(slab[o+words : o+2*words])
		defs[i] = bitset(slab[o+2*words : o+3*words])
	}
	liveOut := func(b *ir.Block, dst bitset) {
		for i := range dst {
			dst[i] = 0
		}
		for _, s := range b.Succs() {
			dst.union(liveIn[s])
		}
	}
	for _, b := range prog.Blocks {
		u, d := uses[b.ID], defs[b.ID]
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			if in.Op.WritesDst() {
				if ci := crossIdx[in.Dst]; ci >= 0 {
					u.clear(ci)
					d.set(ci)
				}
			}
			in.EachUse(func(v *ir.Value) {
				if ci := crossIdx[v.Reg]; ci >= 0 {
					u.set(ci)
				}
			})
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
			cur.transfer(uses[b.ID], defs[b.ID])
			if !cur.equal(liveIn[b.ID]) {
				liveIn[b.ID].copyFrom(cur)
				changed = true
			}
		}
	}

	// Sweep: walk each block backward; a dead eligible definition becomes a
	// Nop (its uses are then not marked live, so in-block chains die in the
	// same sweep). Block-local registers are tracked with generation stamps.
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
					in.EachUse(func(v *ir.Value) {
						crossReads = crossReads || crossIdx[v.Reg] >= 0
					})
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
	return nops, crossReads
}
