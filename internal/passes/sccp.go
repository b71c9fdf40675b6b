package passes

import (
	"specabsint/internal/interp"
	"specabsint/internal/ir"
)

// Sparse conditional constant propagation.
//
// The lattice per register / tracked scalar is the usual three-level one:
// unknown (optimistically "no value seen yet"), a single constant, or
// overdefined. Environments live only at block entries and only for
// cross-block registers plus one slot per memory symbol; block-local
// temporaries are evaluated in a scratch table during the transfer, exactly
// like the interval analysis.
//
// Conditionality: propagation starts at entry and pushes environments only
// along edges that can execute — a CondBr whose condition evaluates to a
// constant propagates only its taken edge. Blocks never reached this way
// keep a nil environment and are left untouched by the rewrite (they are
// exactly the blocks behind a to-be-resolved branch's dead edge).
//
// The memory model mirrors interval.entryEnv: secret scalars and
// uninitialized scalars are overdefined at entry (input vectors may preload
// them), initialized scalars start at their initializer, and array contents
// are never value-tracked. Folding uses interp.EvalBinop so compile-time
// arithmetic is bit-identical to the machine's, and a potentially faulting
// operation (division by a non-constant or zero divisor) is never folded —
// the fault must still happen at runtime.

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
	numCross int
	// env slot layout: [0,numCross) cross registers, then one slot per
	// symbol (only scalars are ever non-overdefined).
	width int
	inEnv [][]lat
	// scratch holds block-local register values during one transfer.
	scratch    []lat
	scratchGen []int
	curGen     int
}

func (s *sccpState) slotSym(id ir.SymbolID) int { return s.numCross + int(id) }

func (s *sccpState) read(env []lat, r ir.Reg) lat {
	if ci := s.crossIdx[r]; ci >= 0 {
		return env[ci]
	}
	if s.scratchGen[r] == s.curGen {
		return s.scratch[r]
	}
	// Read of a local register with no in-block definition: only input
	// registers do this on verified IR, and inputs are arbitrary.
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

func (s *sccpState) entryEnv() []lat {
	env := make([]lat, s.width)
	// Cross registers start unknown; input and secret registers are
	// externally set and must never fold.
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
		slot := s.slotSym(sym.ID)
		switch {
		case sym.Len != 1 || sym.Secret:
			env[slot] = overLat
		case len(sym.Init) > 0:
			env[slot] = constLat(sym.Init[0])
		default:
			// Uninitialized scalars (e.g. main's parameters) model inputs.
			env[slot] = overLat
		}
	}
	return env
}

// transfer evaluates one instruction over env/scratch.
func (s *sccpState) transfer(env []lat, in *ir.Instr) {
	switch in.Op {
	case ir.OpConst, ir.OpMov:
		s.write(env, in.Dst, s.lookup(env, in.A))
	case ir.OpNeg:
		s.write(env, in.Dst, s.unop(env, in, func(c int64) int64 { return -c }))
	case ir.OpNot:
		s.write(env, in.Dst, s.unop(env, in, func(c int64) int64 { return ^c }))
	case ir.OpBool:
		s.write(env, in.Dst, s.unop(env, in, func(c int64) int64 {
			if c != 0 {
				return 1
			}
			return 0
		}))
	case ir.OpLoad:
		sym := s.prog.Symbol(in.Sym)
		if sym.Len == 1 {
			s.write(env, in.Dst, env[s.slotSym(in.Sym)])
		} else {
			s.write(env, in.Dst, overLat)
		}
	case ir.OpStore:
		if s.prog.Symbol(in.Sym).Len == 1 {
			env[s.slotSym(in.Sym)] = s.lookup(env, in.A)
		}
	case ir.OpNop, ir.OpBr, ir.OpCondBr, ir.OpRet, ir.OpFence:
	default:
		if !in.Op.IsBinop() {
			return
		}
		a, b := s.lookup(env, in.A), s.lookup(env, in.B)
		switch {
		case a.kind == latConst && b.kind == latConst:
			if v, err := interp.EvalBinop(in.Op, a.c, b.c); err == nil {
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

func (s *sccpState) unop(env []lat, in *ir.Instr, f func(int64) int64) lat {
	a := s.lookup(env, in.A)
	if a.kind == latConst {
		return constLat(f(a.c))
	}
	return a
}

// outTargets returns the successors execution can reach from the block's
// terminator under env: a constant-condition CondBr yields only its taken
// edge.
func (s *sccpState) outTargets(env []lat, t *ir.Instr) []ir.BlockID {
	switch t.Op {
	case ir.OpBr:
		return []ir.BlockID{t.TrueTarget}
	case ir.OpCondBr:
		if t.Resolved {
			return []ir.BlockID{t.TakenTarget()}
		}
		if cv := s.lookup(env, t.A); cv.kind == latConst {
			if cv.c != 0 {
				return []ir.BlockID{t.TrueTarget}
			}
			return []ir.BlockID{t.FalseTarget}
		}
		return []ir.BlockID{t.TrueTarget, t.FalseTarget}
	}
	return nil
}

// sccp runs the propagation to a fixpoint and then rewrites proven-constant
// register uses to constant operands in place. It returns the number of
// rewritten operands.
func sccp(prog *ir.Program) int {
	crossIdx, numCross := classifyCross(prog)
	s := &sccpState{
		prog:       prog,
		crossIdx:   crossIdx,
		numCross:   numCross,
		width:      numCross + len(prog.Symbols),
		inEnv:      make([][]lat, len(prog.Blocks)),
		scratch:    make([]lat, prog.NumRegs),
		scratchGen: make([]int, prog.NumRegs),
	}
	s.inEnv[prog.Entry] = s.entryEnv()
	work := []ir.BlockID{prog.Entry}
	inWork := make([]bool, len(prog.Blocks))
	inWork[prog.Entry] = true
	env := make([]lat, s.width)
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b] = false
		blk := prog.Blocks[b]
		copy(env, s.inEnv[b])
		s.curGen++
		for i := range blk.Instrs {
			s.transfer(env, &blk.Instrs[i])
		}
		t := blk.Terminator()
		for _, succ := range s.outTargets(env, t) {
			if s.inEnv[succ] == nil {
				s.inEnv[succ] = append([]lat(nil), env...)
			} else {
				changed := false
				dst := s.inEnv[succ]
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
		if s.inEnv[blk.ID] == nil {
			continue
		}
		copy(env, s.inEnv[blk.ID])
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
