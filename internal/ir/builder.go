package ir

import "fmt"

// Builder incrementally constructs a Program.
type Builder struct {
	prog    *Program
	current *Block
	nextReg Reg
	line    int
}

// NewBuilder creates a builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{prog: &Program{Name: name}}
}

// AddSymbol registers a memory symbol and returns its id.
func (bd *Builder) AddSymbol(name string, elemSize, n int, secret bool, init []int64) SymbolID {
	id := SymbolID(len(bd.prog.Symbols))
	bd.prog.Symbols = append(bd.prog.Symbols, &Symbol{
		ID: id, Name: name, ElemSize: elemSize, Len: n, Secret: secret, Init: init,
	})
	return id
}

// NewBlock creates a new basic block and returns its id. It does not change
// the insertion point.
func (bd *Builder) NewBlock(label string) BlockID {
	id := BlockID(len(bd.prog.Blocks))
	if label == "" {
		label = fmt.Sprintf("bb%d", id)
	}
	bd.prog.Blocks = append(bd.prog.Blocks, &Block{ID: id, Label: label})
	return id
}

// SetBlock moves the insertion point to the given block.
func (bd *Builder) SetBlock(id BlockID) { bd.current = bd.prog.Blocks[id] }

// SetLine records the source line attached to subsequently emitted
// instructions.
func (bd *Builder) SetLine(line int) { bd.line = line }

// NewReg allocates a fresh virtual register.
func (bd *Builder) NewReg() Reg {
	r := bd.nextReg
	bd.nextReg++
	return r
}

// MarkSecretReg tags a register as a secret source (a `secret reg`
// declaration, which has no Symbol to carry the tag).
func (bd *Builder) MarkSecretReg(r Reg) {
	bd.prog.SecretRegs = append(bd.prog.SecretRegs, r)
}

// MarkInputReg tags a register as legitimately read before any write (a
// `reg` variable declared without an initializer). The def-before-use
// verifier treats it as defined at entry.
func (bd *Builder) MarkInputReg(r Reg) {
	bd.prog.InputRegs = append(bd.prog.InputRegs, r)
}

// Terminated reports whether the current block already ends in a terminator.
func (bd *Builder) Terminated() bool {
	return bd.current != nil && bd.current.Terminator() != nil
}

func (bd *Builder) emit(in Instr) {
	if bd.current == nil {
		panic("ir: emit without a current block")
	}
	if bd.Terminated() {
		// Dead code after a terminator (e.g. statements after return) is
		// silently dropped; the front end permits it like C does.
		return
	}
	in.Line = bd.line
	bd.current.Instrs = append(bd.current.Instrs, in)
}

// Const emits dst = const v.
func (bd *Builder) Const(v int64) Reg {
	dst := bd.NewReg()
	bd.emit(Instr{Op: OpConst, Dst: dst, A: ConstVal(v)})
	return dst
}

// Mov emits dst = a.
func (bd *Builder) Mov(dst Reg, a Value) {
	bd.emit(Instr{Op: OpMov, Dst: dst, A: a})
}

// Binop emits dst = op a, b and returns dst.
func (bd *Builder) Binop(op Op, a, b Value) Reg {
	if !op.IsBinop() {
		panic(fmt.Sprintf("ir: %s is not a binop", op))
	}
	dst := bd.NewReg()
	bd.emit(Instr{Op: op, Dst: dst, A: a, B: b})
	return dst
}

// Unop emits dst = op a for neg/not/bool.
func (bd *Builder) Unop(op Op, a Value) Reg {
	dst := bd.NewReg()
	bd.emit(Instr{Op: op, Dst: dst, A: a})
	return dst
}

// Load emits dst = load sym[idx].
func (bd *Builder) Load(sym SymbolID, idx Value) Reg {
	dst := bd.NewReg()
	bd.emit(Instr{Op: OpLoad, Dst: dst, Sym: sym, Idx: idx})
	return dst
}

// Store emits store sym[idx] = v.
func (bd *Builder) Store(sym SymbolID, idx Value, v Value) {
	bd.emit(Instr{Op: OpStore, Sym: sym, Idx: idx, A: v})
}

// Fence emits a speculation barrier.
func (bd *Builder) Fence() {
	bd.emit(Instr{Op: OpFence})
}

// Br emits an unconditional branch.
func (bd *Builder) Br(target BlockID) {
	bd.emit(Instr{Op: OpBr, TrueTarget: target})
}

// CondBr emits a conditional branch.
func (bd *Builder) CondBr(cond Value, t, f BlockID) {
	bd.emit(Instr{Op: OpCondBr, A: cond, TrueTarget: t, FalseTarget: f})
}

// Ret emits a return.
func (bd *Builder) Ret(v Value) {
	bd.emit(Instr{Op: OpRet, A: v})
}

// Finish seals the program: sets the entry block, ensures every block is
// terminated (unterminated blocks get `ret 0`, matching C's fall-off-main),
// and assigns instruction ids. It checks nothing: internal/irverify is the
// structural check, and lowering runs it on every program it finishes.
func (bd *Builder) Finish(entry BlockID) *Program {
	bd.prog.Entry = entry
	bd.prog.NumRegs = int(bd.nextReg)
	for _, b := range bd.prog.Blocks {
		if b.Terminator() == nil {
			b.Instrs = append(b.Instrs, Instr{Op: OpRet, A: ConstVal(0)})
		}
	}
	bd.prog.Finalize()
	return bd.prog
}
