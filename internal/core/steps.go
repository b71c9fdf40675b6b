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
// fixpoint runs, so the transfer, lane-walk, classification, and
// depth-decision loops iterate a dense slice per block instead of re-walking
// b.Instrs with a lookup per instruction.

// accessStep is one pre-resolved memory access within a block: the
// instruction, its index in the block, and its candidate cache blocks on the
// architectural path (acc) and on wrong paths (spec), where an out-of-bounds
// index reaches adjacent memory instead of faulting (Spectre v1).
type accessStep struct {
	in   *ir.Instr
	pos  int
	acc  cache.Access
	spec cache.Access
}

// blockSteps is the access-step program of one basic block.
//
// steps lists every access in order; a fence does not truncate it, because
// a fence is architecturally a no-op. A wrong-path lane executes only the
// first numSpec steps, those before the block's first fence, since no lane
// survives past it. A lane entering the block with budget B executes step s
// iff B >= s.pos+1, one budget unit per instruction.
type blockSteps struct {
	steps   []accessStep
	numSpec int
	// fenceIdx is the instruction index of the block's first fence, -1 when
	// the block has none. A lane whose budget strictly exceeds fenceIdx hits
	// the fence (FencesHit accounting); at or below it, the budget expires
	// first.
	fenceIdx int
	// numInstrs is len(b.Instrs): the budget a lane consumes crossing the
	// whole block.
	numInstrs int
}

// specSteps returns the steps a wrong-path lane can execute.
func (bs *blockSteps) specSteps() []accessStep { return bs.steps[:bs.numSpec] }

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
			bs.steps = append(bs.steps, accessStep{in: in, pos: i, acc: acc, spec: spec})
			if bs.fenceIdx < 0 {
				bs.numSpec++
			}
		}
		p.blocks[b.ID] = bs
	}
	return p
}

// dataSteps resolves every Load/Store of prog against the data layout and
// the index intervals.
func dataSteps(prog *ir.Program, l *layout.Layout, idx *interval.Result) *stepProgram {
	return buildSteps(prog, func(in *ir.Instr) (cache.Access, cache.Access, bool) {
		if in.Op != ir.OpLoad && in.Op != ir.OpStore {
			return cache.Access{}, cache.Access{}, false
		}
		return resolveAccess(l, idx, in), resolveSpecAccess(l, idx, in), true
	})
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
		s.SpecSteps += int64(bs.numSpec)
		if bs.fenceIdx >= 0 {
			s.FencedBlocks++
		}
	}
	return s
}
