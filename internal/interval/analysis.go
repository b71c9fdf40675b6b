package interval

import (
	"specabsint/internal/cfg"
	"specabsint/internal/ir"
)

// Env is the abstract environment at a block boundary. Only *cross-block*
// registers (those read in a block other than the one defining them, or
// defined in several blocks) are stored — after full loop unrolling a
// program has tens of thousands of single-block temporaries, and carrying
// all of them per block would dominate the analysis cost. Block-local
// registers are evaluated in a scratch table during the block transfer.
type Env struct {
	Regs []Interval // indexed by compact cross-register index
	Mems []Interval // indexed by SymbolID (scalars only)
}

// copyFrom makes e a copy of o, reusing e's storage.
func (e *Env) copyFrom(o *Env) {
	e.Regs = append(e.Regs[:0], o.Regs...)
	e.Mems = append(e.Mems[:0], o.Mems...)
}

func (e *Env) join(o *Env) (changed bool) {
	for i := range e.Regs {
		j := e.Regs[i].Join(o.Regs[i])
		if j != e.Regs[i] {
			e.Regs[i] = j
			changed = true
		}
	}
	for i := range e.Mems {
		j := e.Mems[i].Join(o.Mems[i])
		if j != e.Mems[i] {
			e.Mems[i] = j
			changed = true
		}
	}
	return changed
}

func (e *Env) widen(prev *Env) {
	for i := range e.Regs {
		e.Regs[i] = e.Regs[i].Widen(prev.Regs[i])
	}
	for i := range e.Mems {
		e.Mems[i] = e.Mems[i].Widen(prev.Mems[i])
	}
}

// Result holds the per-instruction index intervals of a completed analysis.
type Result struct {
	// Index[instrID] is the interval of the element index of a Load/Store,
	// present only for memory instructions with a register index.
	Index map[int]Interval
	// Iterations counts block transfers performed by the fixpoint loop.
	Iterations int
}

// IndexOf returns the interval for a memory instruction's element index.
// Constant indices are singletons; unanalyzed registers are Top.
func (r *Result) IndexOf(in *ir.Instr) Interval {
	if in.Idx.IsConst {
		return Single(in.Idx.Const)
	}
	if iv, ok := r.Index[in.ID]; ok {
		return iv
	}
	return Top()
}

// wideningThreshold is the number of visits to a block before widening
// kicks in.
const wideningThreshold = 3

// analyzer carries the fixpoint machinery.
type analyzer struct {
	prog *ir.Program
	res  *Result

	// crossIdx[r] is the compact env index of register r, or -1 when r is
	// block-local.
	crossIdx []int
	numCross int

	// scratch evaluates block-local registers; scratchGen invalidates it
	// per block transfer without clearing.
	scratch    []Interval
	scratchGen []uint32
	curGen     uint32
}

// Analyze runs the interval analysis of prog to a fixpoint: a FIFO worklist
// over effective successors that widens a loop head's environment once the
// head has been visited wideningThreshold times. wto is the WTO of prog's
// effective CFG (cfg.EffectiveWTO): the worklist follows its successor
// lists, and its component heads are the loop heads. Two scratch
// environments serve the whole fixpoint: env carries a block's
// out-environment, joined into each successor's in-environment in place,
// and prev keeps a loop head's environment aside only when that join must
// be widened.
//
// Branch conditions are not used to refine environments at successors: the
// result therefore over-approximates the register/memory values observable
// on speculative (wrong-path) executions as well as architectural ones.
func Analyze(prog *ir.Program, wto *cfg.WTO) *Result {
	a := &analyzer{
		prog:       prog,
		res:        &Result{Index: map[int]Interval{}},
		crossIdx:   make([]int, prog.NumRegs),
		scratch:    make([]Interval, prog.NumRegs),
		scratchGen: make([]uint32, prog.NumRegs),
	}
	a.classifyRegisters()

	nBlocks := len(prog.Blocks)
	in := make([]*Env, nBlocks)
	visits := make([]int, nBlocks)

	in[prog.Entry] = a.entryEnv()
	work := []ir.BlockID{prog.Entry}
	inWork := make([]bool, nBlocks)
	inWork[prog.Entry] = true

	env, prev := &Env{}, &Env{}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b] = false
		visits[b]++
		a.res.Iterations++

		env.copyFrom(in[b])
		a.transferBlock(prog.Block(b), env)
		// Effective successors (wto.Succs): a Resolved CondBr is an
		// unconditional jump in the emitted program, so no execution —
		// architectural or wrong-path — reaches its dead edge, and no value
		// can flow there.
		for _, s := range wto.Succs[b] {
			if in[s] == nil {
				in[s] = a.bottomEnv()
			}
			// A widened join is widen(in[s] ⊔ env, in[s]), which covers
			// in[s], so it replaces in[s] outright and changes it exactly
			// when the plain join does.
			widen := wto.Head[s] && visits[s] >= wideningThreshold
			if widen {
				prev.copyFrom(in[s])
			}
			if !in[s].join(env) {
				continue
			}
			if widen {
				in[s].widen(prev)
			}
			if !inWork[s] {
				work = append(work, s)
				inWork[s] = true
			}
		}
	}
	return a.res
}

// classifyRegisters finds the registers whose values flow across block
// boundaries.
func (a *analyzer) classifyRegisters() {
	const noBlock = -2
	defBlock := make([]int, a.prog.NumRegs)
	for i := range defBlock {
		defBlock[i] = noBlock
	}
	cross := make([]bool, a.prog.NumRegs)
	definedHere := make([]uint32, a.prog.NumRegs)
	var gen uint32

	for _, b := range a.prog.Blocks {
		gen++
		for i := range b.Instrs {
			in := &b.Instrs[i]
			in.EachUse(func(v *ir.Value) {
				if definedHere[v.Reg] != gen {
					cross[v.Reg] = true
				}
			})
			if in.Op.WritesDst() {
				if defBlock[in.Dst] != noBlock && defBlock[in.Dst] != int(b.ID) {
					cross[in.Dst] = true
				}
				defBlock[in.Dst] = int(b.ID)
				definedHere[in.Dst] = gen
			}
		}
	}
	for r := range a.crossIdx {
		if cross[r] {
			a.crossIdx[r] = a.numCross
			a.numCross++
		} else {
			a.crossIdx[r] = -1
		}
	}
}

func (a *analyzer) bottomEnv() *Env {
	e := &Env{
		Regs: make([]Interval, a.numCross),
		Mems: make([]Interval, len(a.prog.Symbols)),
	}
	for i := range e.Regs {
		e.Regs[i] = Bot()
	}
	for i := range e.Mems {
		e.Mems[i] = Bot()
	}
	return e
}

func (a *analyzer) entryEnv() *Env {
	e := a.bottomEnv()
	for _, sym := range a.prog.Symbols {
		if sym.Len != 1 {
			continue
		}
		switch {
		case sym.Secret:
			// Secrets are arbitrary.
			e.Mems[sym.ID] = Top()
		case len(sym.Init) > 0:
			e.Mems[sym.ID] = Single(sym.Init[0])
		default:
			// Uninitialized scalars (e.g. main's parameters) model inputs.
			e.Mems[sym.ID] = Top()
		}
	}
	return e
}

// readReg fetches a register value from the env or the block-local scratch.
func (a *analyzer) readReg(env *Env, r ir.Reg) Interval {
	if ci := a.crossIdx[r]; ci >= 0 {
		iv := env.Regs[ci]
		if iv.IsBot() {
			// Read of a never-written register on this path: be safe.
			return Top()
		}
		return iv
	}
	if a.scratchGen[r] == a.curGen {
		return a.scratch[r]
	}
	return Top()
}

func (a *analyzer) writeReg(env *Env, r ir.Reg, iv Interval) {
	if ci := a.crossIdx[r]; ci >= 0 {
		env.Regs[ci] = iv
		return
	}
	a.scratch[r] = iv
	a.scratchGen[r] = a.curGen
}

// transferBlock pushes env through all instructions of a block, recording
// index intervals for memory instructions.
func (a *analyzer) transferBlock(b *ir.Block, env *Env) {
	a.curGen++
	for i := range b.Instrs {
		a.transfer(env, &b.Instrs[i])
	}
}

func (a *analyzer) transfer(env *Env, instr *ir.Instr) {
	val := func(v ir.Value) Interval {
		if v.IsConst {
			return Single(v.Const)
		}
		return a.readReg(env, v.Reg)
	}
	switch instr.Op {
	case ir.OpConst, ir.OpMov:
		a.writeReg(env, instr.Dst, val(instr.A))
	case ir.OpNeg:
		a.writeReg(env, instr.Dst, val(instr.A).Neg())
	case ir.OpNot:
		a.writeReg(env, instr.Dst, Top())
	case ir.OpBool:
		a.writeReg(env, instr.Dst, Bool01())
	case ir.OpAdd:
		a.writeReg(env, instr.Dst, val(instr.A).Add(val(instr.B)))
	case ir.OpSub:
		a.writeReg(env, instr.Dst, val(instr.A).Sub(val(instr.B)))
	case ir.OpMul:
		a.writeReg(env, instr.Dst, val(instr.A).Mul(val(instr.B)))
	case ir.OpDiv:
		a.writeReg(env, instr.Dst, val(instr.A).Div(val(instr.B)))
	case ir.OpRem:
		a.writeReg(env, instr.Dst, val(instr.A).Rem(val(instr.B)))
	case ir.OpAnd:
		a.writeReg(env, instr.Dst, val(instr.A).And(val(instr.B)))
	case ir.OpOr, ir.OpXor:
		av, bv := val(instr.A), val(instr.B)
		switch {
		case av.IsSingle() && bv.IsSingle():
			if instr.Op == ir.OpOr {
				a.writeReg(env, instr.Dst, Single(av.Lo|bv.Lo))
			} else {
				a.writeReg(env, instr.Dst, Single(av.Lo^bv.Lo))
			}
		case av.Lo >= 0 && bv.Lo >= 0 && !av.IsTop() && !bv.IsTop():
			// or/xor of non-negative values is bounded by the next power
			// of two above both.
			a.writeReg(env, instr.Dst, Of(0, ceilPow2(max64(av.Hi, bv.Hi))))
		default:
			a.writeReg(env, instr.Dst, Top())
		}
	case ir.OpShl:
		a.writeReg(env, instr.Dst, val(instr.A).Shl(val(instr.B)))
	case ir.OpShr:
		a.writeReg(env, instr.Dst, val(instr.A).Shr(val(instr.B)))
	case ir.OpCmpLt, ir.OpCmpLe, ir.OpCmpGt, ir.OpCmpGe, ir.OpCmpEq, ir.OpCmpNe:
		a.writeReg(env, instr.Dst, compareInterval(instr.Op, val(instr.A), val(instr.B)))
	case ir.OpLoad:
		if !instr.Idx.IsConst {
			recordIndex(a.res, instr.ID, val(instr.Idx))
		}
		sym := a.prog.Symbol(instr.Sym)
		if sym.Len == 1 {
			iv := env.Mems[instr.Sym]
			if iv.IsBot() {
				iv = Top()
			}
			a.writeReg(env, instr.Dst, iv)
		} else {
			// Array contents are not value-tracked.
			a.writeReg(env, instr.Dst, Top())
		}
	case ir.OpStore:
		if !instr.Idx.IsConst {
			recordIndex(a.res, instr.ID, val(instr.Idx))
		}
		sym := a.prog.Symbol(instr.Sym)
		if sym.Len == 1 {
			env.Mems[instr.Sym] = val(instr.A)
		}
	case ir.OpBr, ir.OpCondBr, ir.OpRet, ir.OpNop, ir.OpFence:
		// no value effect
	}
}

// recordIndex joins a freshly computed index interval into the result. The
// per-block environments grow monotonically, so joining keeps the final
// (widest, sound) interval regardless of worklist order.
func recordIndex(res *Result, id int, iv Interval) {
	if old, ok := res.Index[id]; ok {
		iv = old.Join(iv)
	}
	res.Index[id] = iv
}

func compareInterval(op ir.Op, a, b Interval) Interval {
	if a.IsBot() || b.IsBot() {
		return Bot()
	}
	// Definitely-true / definitely-false detection keeps comparison results
	// singletons where possible.
	var defTrue, defFalse bool
	switch op {
	case ir.OpCmpLt:
		defTrue, defFalse = a.Hi < b.Lo, a.Lo >= b.Hi
	case ir.OpCmpLe:
		defTrue, defFalse = a.Hi <= b.Lo, a.Lo > b.Hi
	case ir.OpCmpGt:
		defTrue, defFalse = a.Lo > b.Hi, a.Hi <= b.Lo
	case ir.OpCmpGe:
		defTrue, defFalse = a.Lo >= b.Hi, a.Hi < b.Lo
	case ir.OpCmpEq:
		defTrue = a.IsSingle() && b.IsSingle() && a.Lo == b.Lo
		defFalse = a.Hi < b.Lo || b.Hi < a.Lo
	case ir.OpCmpNe:
		defTrue = a.Hi < b.Lo || b.Hi < a.Lo
		defFalse = a.IsSingle() && b.IsSingle() && a.Lo == b.Lo
	}
	switch {
	case defTrue:
		return Single(1)
	case defFalse:
		return Single(0)
	}
	return Bool01()
}

func ceilPow2(v int64) int64 {
	if v <= 0 {
		return 0
	}
	p := int64(1)
	for p <= v && p > 0 {
		p <<= 1
	}
	return p - 1
}
