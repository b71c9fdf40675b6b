package core

import (
	"specabsint/internal/cache"
	"specabsint/internal/interval"
	"specabsint/internal/ir"
	"specabsint/internal/layout"
	"specabsint/internal/obs"
)

// Access steps are the engine's only view of a block's instructions: every
// memory access is resolved to its candidate cache blocks once, before the
// fixpoint runs, so the transfer, lane-walk and classification loops
// iterate a dense slice per block instead of re-walking b.Instrs with a
// lookup per instruction.

// accessStep is one pre-resolved memory access within a block: the
// instruction, its index in the block, and its candidate cache blocks on the
// architectural path.
type accessStep struct {
	in  *ir.Instr
	pos int
	acc cache.Access
	// cond marks a load the block's branch condition depends on: the §6.2
	// depth bound is b_h only if every such load hits (see condInBlock).
	cond bool
}

// blockSteps is the access-step program of one basic block.
//
// steps lists every access in order; a fence does not truncate it, because
// a fence is architecturally a no-op. A wrong-path lane executes only the
// first len(spec) steps, those before the block's first fence, since no lane
// survives past it. A lane entering the block with budget B executes step s
// iff B >= s.pos+1, one budget unit per instruction.
type blockSteps struct {
	steps []accessStep
	// spec holds the wrong-path resolutions of the steps a lane can
	// execute, where an out-of-bounds index reaches adjacent memory instead
	// of faulting (Spectre v1).
	spec []cache.Access
	// fenceIdx is the instruction index of the block's first fence, -1 when
	// the block has none. A lane whose budget strictly exceeds fenceIdx hits
	// the fence (FencesHit accounting); at or below it, the budget expires
	// first.
	fenceIdx int
	// numInstrs is len(b.Instrs): the budget a lane consumes crossing the
	// whole block.
	numInstrs int
	// condInBlock reports that the block ends in an unresolved conditional
	// branch whose condition is computed within the block, from constants
	// and the loads marked cond. Only such a branch can earn the §6.2 hit
	// bound.
	condInBlock bool
}

// specWithin returns the wrong-path accesses a lane entering the block with
// the given budget executes.
func (bs *blockSteps) specWithin(budget int) []cache.Access {
	n := 0
	for n < len(bs.spec) && bs.steps[n].pos < budget {
		n++
	}
	return bs.spec[:n]
}

// stepProgram is a program's access steps, indexed by block id. It is
// immutable once built.
type stepProgram struct {
	blocks []blockSteps
}

// buildSteps resolves every access of prog. resolve returns an instruction's
// architectural and wrong-path resolutions, or ok=false when the
// instruction touches no cache.
func buildSteps(prog *ir.Program, resolve func(in *ir.Instr) (acc, spec cache.Access, ok bool)) *stepProgram {
	p := &stepProgram{blocks: make([]blockSteps, len(prog.Blocks))}
	for _, b := range prog.Blocks {
		bs := blockSteps{fenceIdx: -1, numInstrs: len(b.Instrs)}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpFence && bs.fenceIdx < 0 {
				bs.fenceIdx = i
			}
			acc, spec, ok := resolve(in)
			if !ok {
				continue
			}
			bs.steps = append(bs.steps, accessStep{in: in, pos: i, acc: acc})
			if bs.fenceIdx < 0 {
				bs.spec = append(bs.spec, spec)
			}
		}
		p.blocks[b.ID] = bs
	}
	return p
}

// dataSteps resolves every Load/Store of prog against the data layout and
// the index intervals, and marks the loads each unresolved branch condition
// depends on (branchSlice).
func dataSteps(prog *ir.Program, l *layout.Layout, idx *interval.Result) *stepProgram {
	p := buildSteps(prog, func(in *ir.Instr) (cache.Access, cache.Access, bool) {
		if in.Op != ir.OpLoad && in.Op != ir.OpStore {
			return cache.Access{}, cache.Access{}, false
		}
		return resolveAccess(l, idx, in), resolveSpecAccess(l, idx, in), true
	})
	for _, b := range prog.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != ir.OpCondBr || t.Resolved {
			continue
		}
		loads, resolved := branchSlice(b)
		if !resolved {
			continue
		}
		bs := &p.blocks[b.ID]
		bs.condInBlock = true
		for i := range bs.steps {
			bs.steps[i].cond = loads[bs.steps[i].in.ID]
		}
	}
	return p
}

// fetchSteps makes every instruction an access to its code block, on right
// and wrong paths alike (fetchBlocks is layout.CodeLayout's per-instruction
// block map).
func fetchSteps(prog *ir.Program, fetchBlocks []layout.BlockID) *stepProgram {
	return buildSteps(prog, func(in *ir.Instr) (cache.Access, cache.Access, bool) {
		acc := cache.Access{First: fetchBlocks[in.ID], Count: 1}
		return acc, acc, true
	})
}

// stats returns the step program's shape, the stats document's bytecode
// section.
func (p *stepProgram) stats() obs.BytecodeStats {
	s := obs.BytecodeStats{Blocks: int64(len(p.blocks))}
	for i := range p.blocks {
		bs := &p.blocks[i]
		s.ArchSteps += int64(len(bs.steps))
		s.SpecSteps += int64(len(bs.spec))
		if bs.fenceIdx >= 0 {
			s.FencedBlocks++
		}
	}
	return s
}

// branchSlice computes the backward slice of a block's branch condition
// within the block: the load instruction ids feeding the condition, and
// whether the condition is fully resolved by in-block computation. It is
// purely structural (state-independent), so dataSteps marks it on the
// block's steps once.
func branchSlice(block *ir.Block) (sliceLoads map[int]bool, resolved bool) {
	t := block.Terminator()
	if t.A.IsConst {
		return nil, true
	}
	needed := map[ir.Reg]bool{t.A.Reg: true}
	sliceLoads = map[int]bool{}
	for i := len(block.Instrs) - 2; i >= 0; i-- {
		in := &block.Instrs[i]
		if !in.Op.WritesDst() || !needed[in.Dst] {
			continue
		}
		delete(needed, in.Dst)
		if in.Op == ir.OpLoad {
			sliceLoads[in.ID] = true
		}
		in.EachUse(func(v *ir.Value) { needed[v.Reg] = true })
	}
	// Unresolved register reads mean the condition depends on values computed
	// before this block; we cannot cheaply prove the resolving loads hit.
	return sliceLoads, len(needed) == 0
}
