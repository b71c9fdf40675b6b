package passes

import "specabsint/internal/ir"

// Sparse conditional constant propagation.
//
// The lattice per register / tracked scalar is the usual three-level one:
// unknown (optimistically "no value seen yet"), a single constant, or
// overdefined. Environments live only at block entries and only for
// cross-block registers (ir.Program.CrossRegs, the partition the interval
// analysis and DCE use) plus one slot per scalar symbol; block-local
// temporaries are evaluated in a scratch table during the transfer. Arrays
// get no slot: their contents are never tracked, so a load from one is
// overdefined. Every block's entry environment is a window of one slab,
// allocated once.
//
// Conditionality: propagation starts at entry and pushes environments only
// along edges that can execute — a CondBr whose condition evaluates to a
// constant propagates only its taken edge. Blocks never reached this way
// are left unreached and untouched by the rewrite (they are exactly the
// blocks behind a to-be-resolved branch's dead edge).
//
// A scalar starts at its ir.Symbol.EntryValue, the interval analysis's
// rule too, and is overdefined at entry without one (input vectors may
// preload it); array contents are never value-tracked. Folding evaluates
// with ir.EvalUnop and ir.EvalBinop, the simulator's own semantics, and a
// potentially faulting operation (division by a non-constant or zero
// divisor) is never folded — the fault must still happen at runtime.

type latKind int8

const (
	latUnknown latKind = iota
	latConst
	latOver
)

type lat struct {
	kind latKind
	c    int64
}

var overLat = lat{kind: latOver}

func constLat(c int64) lat { return lat{kind: latConst, c: c} }

// meet is the lattice meet: unknown is the identity, differing constants
// fall to overdefined.
func meet(a, b lat) lat {
	switch {
	case a.kind == latUnknown:
		return b
	case b.kind == latUnknown:
		return a
	case a.kind == latOver || b.kind == latOver:
		return overLat
	case a.c == b.c:
		return a
	default:
		return overLat
	}
}

type sccpState struct {
	prog     *ir.Program
	crossIdx []int
	// env slot layout: [0,numCross) cross registers, then symSlot's slots
	// for the scalar symbols.
	width   int
	symSlot []int // env slot of each scalar symbol; -1 for arrays
	// envs holds each block's entry environment at [b*width, (b+1)*width),
	// meaningful once reached[b] is set.
	envs    []lat
	reached []bool
	// scratch holds block-local register values during one transfer.
	scratch    []lat
	scratchGen []int
	curGen     int
}

func (s *sccpState) inEnv(b ir.BlockID) []lat {
	return s.envs[int(b)*s.width : (int(b)+1)*s.width]
}

func (s *sccpState) read(env []lat, r ir.Reg) lat {
	if ci := s.crossIdx[r]; ci >= 0 {
		return env[ci]
	}
	if s.scratchGen[r] == s.curGen {
		return s.scratch[r]
	}
	// Unreachable on a read: CrossRegs leaves a register block-local only
	// when its block writes it before reading it. Overdefined is safe.
	return overLat
}

func (s *sccpState) write(env []lat, r ir.Reg, v lat) {
	if ci := s.crossIdx[r]; ci >= 0 {
		env[ci] = v
		return
	}
	s.scratch[r] = v
	s.scratchGen[r] = s.curGen
}

func (s *sccpState) lookup(env []lat, v ir.Value) lat {
	if v.IsConst {
		return constLat(v.Const)
	}
	return s.read(env, v.Reg)
}

// initEntry fills the entry block's environment. Cross registers start
// unknown, except input and secret registers: they are externally set and
// must never fold.
func (s *sccpState) initEntry(env []lat) {
	for _, r := range s.prog.InputRegs {
		if ci := s.crossIdx[r]; ci >= 0 {
			env[ci] = overLat
		}
	}
	for _, r := range s.prog.SecretRegs {
		if ci := s.crossIdx[r]; ci >= 0 {
			env[ci] = overLat
		}
	}
	for _, sym := range s.prog.Symbols {
		if slot := s.symSlot[sym.ID]; slot >= 0 {
			if v, known := sym.EntryValue(); known {
				env[slot] = constLat(v)
			} else {
				env[slot] = overLat
			}
		}
	}
}

// transfer evaluates one instruction over env/scratch.
func (s *sccpState) transfer(env []lat, in *ir.Instr) {
	switch in.Op {
	case ir.OpConst, ir.OpMov:
		s.write(env, in.Dst, s.lookup(env, in.A))
	case ir.OpNeg, ir.OpNot, ir.OpBool:
		a := s.lookup(env, in.A)
		if a.kind == latConst {
			a = constLat(ir.EvalUnop(in.Op, a.c))
		}
		s.write(env, in.Dst, a)
	case ir.OpLoad:
		if slot := s.symSlot[in.Sym]; slot >= 0 {
			s.write(env, in.Dst, env[slot])
		} else {
			s.write(env, in.Dst, overLat)
		}
	case ir.OpStore:
		if slot := s.symSlot[in.Sym]; slot >= 0 {
			env[slot] = s.lookup(env, in.A)
		}
	case ir.OpNop, ir.OpBr, ir.OpCondBr, ir.OpRet, ir.OpFence:
	default:
		if !in.Op.IsBinop() {
			return
		}
		a, b := s.lookup(env, in.A), s.lookup(env, in.B)
		switch {
		case a.kind == latConst && b.kind == latConst:
			if v, ok := ir.EvalBinop(in.Op, a.c, b.c); ok {
				s.write(env, in.Dst, constLat(v))
			} else {
				// Folding would erase a runtime fault (division by zero).
				s.write(env, in.Dst, overLat)
			}
		case a.kind == latOver || b.kind == latOver:
			s.write(env, in.Dst, overLat)
		default:
			s.write(env, in.Dst, lat{kind: latUnknown})
		}
	}
}

// sccp runs the propagation to a fixpoint and then rewrites proven-constant
// register uses to constant operands in place. It returns the number of
// rewritten operands.
func sccp(prog *ir.Program) int {
	crossIdx, numCross := prog.CrossRegs()
	symSlot := make([]int, len(prog.Symbols))
	width := numCross
	for i, sym := range prog.Symbols {
		symSlot[i] = -1
		if sym.Len == 1 {
			symSlot[i] = width
			width++
		}
	}
	s := &sccpState{
		prog:       prog,
		crossIdx:   crossIdx,
		width:      width,
		symSlot:    symSlot,
		envs:       make([]lat, len(prog.Blocks)*width),
		reached:    make([]bool, len(prog.Blocks)),
		scratch:    make([]lat, prog.NumRegs),
		scratchGen: make([]int, prog.NumRegs),
	}
	s.initEntry(s.inEnv(prog.Entry))
	s.reached[prog.Entry] = true
	work := []ir.BlockID{prog.Entry}
	inWork := make([]bool, len(prog.Blocks))
	inWork[prog.Entry] = true
	env := make([]lat, width)
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b] = false
		blk := prog.Blocks[b]
		copy(env, s.inEnv(b))
		s.curGen++
		for i := range blk.Instrs {
			s.transfer(env, &blk.Instrs[i])
		}
		// Execution follows the effective successors, and of an
		// unresolved CondBr whose condition is constant, only the taken
		// edge.
		succs := blk.EffectiveSuccs()
		if t := blk.Terminator(); t.Op == ir.OpCondBr && !t.Resolved {
			if cv := s.lookup(env, t.A); cv.kind == latConst {
				if cv.c != 0 {
					succs = succs[:1]
				} else {
					succs = succs[1:]
				}
			}
		}
		for _, succ := range succs {
			dst := s.inEnv(succ)
			if !s.reached[succ] {
				s.reached[succ] = true
				copy(dst, env)
			} else {
				changed := false
				for i := range dst {
					m := meet(dst[i], env[i])
					if m != dst[i] {
						dst[i] = m
						changed = true
					}
				}
				if !changed {
					continue
				}
			}
			if !inWork[succ] {
				inWork[succ] = true
				work = append(work, succ)
			}
		}
	}

	// Rewrite: in every executed block, replace register uses whose lattice
	// value is a constant. The transfer re-runs with post-rewrite operands,
	// which yields the same lattice values.
	folded := 0
	for _, blk := range prog.Blocks {
		if !s.reached[blk.ID] {
			continue
		}
		copy(env, s.inEnv(blk.ID))
		s.curGen++
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			in.EachUse(func(v *ir.Value) {
				if lv := s.read(env, v.Reg); lv.kind == latConst {
					*v = ir.ConstVal(lv.c)
					folded++
				}
			})
			s.transfer(env, in)
		}
	}
	return folded
}
