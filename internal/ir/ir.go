// Package ir defines the register-machine intermediate representation the
// analyses operate on. A Function is a list of basic blocks; each block is a
// straight-line sequence of instructions ending in a terminator (Br, CondBr,
// or Ret). Values are either virtual registers or integer constants.
// Memory traffic is explicit: only Load and Store touch memory, and every
// memory operand names a Symbol (a laid-out program variable) plus an
// element index operand.
package ir

import (
	"fmt"
	"strings"
)

// Reg is a virtual register id.
type Reg int32

// String formats the register as %rN.
func (r Reg) String() string { return fmt.Sprintf("%%r%d", int(r)) }

// Value is an instruction operand: a register or a constant. The flag sits
// after the register so the struct packs into 16 bytes.
type Value struct {
	Const   int64
	Reg     Reg
	IsConst bool
}

// ConstVal makes a constant operand.
func ConstVal(v int64) Value { return Value{IsConst: true, Const: v} }

// RegVal makes a register operand.
func RegVal(r Reg) Value { return Value{Reg: r} }

// String formats the operand.
func (v Value) String() string {
	if v.IsConst {
		return fmt.Sprintf("%d", v.Const)
	}
	return v.Reg.String()
}

// Op enumerates instruction opcodes.
type Op uint8

// Opcodes.
const (
	OpNop Op = iota
	OpConst
	OpMov
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpNeg
	OpNot  // bitwise complement
	OpBool // logical not-zero -> 1/0... used with Cmp* usually
	OpCmpLt
	OpCmpLe
	OpCmpGt
	OpCmpGe
	OpCmpEq
	OpCmpNe
	OpLoad
	OpStore
	OpBr
	OpCondBr
	OpRet
	// OpFence is a speculation barrier: architecturally a no-op, but it
	// stops speculative execution dead — the simulator squashes every
	// in-flight wrong-path instruction when a fence reaches execute, and the
	// abstract engine terminates any speculative lane that crosses it. It is
	// the primitive the mitigation synthesizer (internal/mitigate) inserts.
	OpFence
)

var opNames = map[Op]string{
	OpNop:    "nop",
	OpConst:  "const",
	OpMov:    "mov",
	OpAdd:    "add",
	OpSub:    "sub",
	OpMul:    "mul",
	OpDiv:    "div",
	OpRem:    "rem",
	OpAnd:    "and",
	OpOr:     "or",
	OpXor:    "xor",
	OpShl:    "shl",
	OpShr:    "shr",
	OpNeg:    "neg",
	OpNot:    "not",
	OpBool:   "bool",
	OpCmpLt:  "cmplt",
	OpCmpLe:  "cmple",
	OpCmpGt:  "cmpgt",
	OpCmpGe:  "cmpge",
	OpCmpEq:  "cmpeq",
	OpCmpNe:  "cmpne",
	OpLoad:   "load",
	OpStore:  "store",
	OpBr:     "br",
	OpCondBr: "condbr",
	OpRet:    "ret",
	OpFence:  "fence",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsBinop reports whether the op is a two-operand arithmetic/compare op.
func (o Op) IsBinop() bool {
	switch o {
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpCmpLt, OpCmpLe, OpCmpGt, OpCmpGe, OpCmpEq, OpCmpNe:
		return true
	}
	return false
}

// IsTerminator reports whether the op ends a basic block.
func (o Op) IsTerminator() bool {
	return o == OpBr || o == OpCondBr || o == OpRet
}

// WritesDst reports whether the op writes its Dst register.
func (o Op) WritesDst() bool {
	switch o {
	case OpNop, OpStore, OpBr, OpCondBr, OpRet, OpFence:
		return false
	}
	return true
}

// EvalUnop returns what the one-operand op computes on a: OpNeg negates,
// OpNot complements, and OpBool yields 1 for any nonzero a and 0 for zero.
// The simulator executes with it and SCCP folds with it, so compile-time
// folding and execution cannot disagree.
func EvalUnop(op Op, a int64) int64 {
	switch op {
	case OpNeg:
		return -a
	case OpNot:
		return ^a
	case OpBool:
		return b2i(a != 0)
	}
	panic(fmt.Sprintf("ir: %s is not a one-operand op", op))
}

// EvalBinop returns what the two-operand op computes on a and b: int64
// arithmetic that wraps, shift amounts masked to 6 bits, an arithmetic
// right shift, and comparisons that yield 1 or 0. ok is false for a
// division or remainder by zero, which faults: the simulator stops there,
// and a constant folder must leave the fault to run time. The simulator,
// SCCP and MiniC's constant folder all evaluate with it.
func EvalBinop(op Op, a, b int64) (v int64, ok bool) {
	switch op {
	case OpAdd:
		return a + b, true
	case OpSub:
		return a - b, true
	case OpMul:
		return a * b, true
	case OpDiv:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case OpRem:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case OpAnd:
		return a & b, true
	case OpOr:
		return a | b, true
	case OpXor:
		return a ^ b, true
	case OpShl:
		return a << (uint64(b) & 63), true
	case OpShr:
		return a >> (uint64(b) & 63), true
	case OpCmpLt:
		return b2i(a < b), true
	case OpCmpLe:
		return b2i(a <= b), true
	case OpCmpGt:
		return b2i(a > b), true
	case OpCmpGe:
		return b2i(a >= b), true
	case OpCmpEq:
		return b2i(a == b), true
	case OpCmpNe:
		return b2i(a != b), true
	}
	panic(fmt.Sprintf("ir: %s is not a two-operand op", op))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// SymbolID identifies a memory symbol within a Program.
type SymbolID int32

// Symbol is a memory-resident program variable (scalar or array).
type Symbol struct {
	ID       SymbolID
	Name     string
	ElemSize int  // bytes per element
	Len      int  // number of elements (1 for scalars)
	Secret   bool // taint source for side-channel analysis
	Init     []int64
}

// SizeBytes returns the symbol's total storage size.
func (s *Symbol) SizeBytes() int { return s.ElemSize * s.Len }

// EntryValue returns the value scalar s holds when the program starts, if
// every run starts with that value: s has an initializer and is not
// secret. An input vector may preload any other scalar (a main parameter,
// a secret, an uninitialized global), so its entry value is unknown. SCCP
// and the interval pre-pass seed their entry environments with this rule.
func (s *Symbol) EntryValue() (v int64, known bool) {
	if len(s.Init) == 0 || s.Secret {
		return 0, false
	}
	return s.Init[0], true
}

// Instr is one IR instruction. Lowering emits one per source operation and
// full unrolling repeats them, so programs hold tens of thousands: the
// one-byte fields lead and register, block and symbol ids are 32-bit, which
// packs an Instr into 88 bytes (TestInstrSize).
type Instr struct {
	Op Op
	// Resolved marks a CondBr whose outcome the pass pipeline proved at
	// compile time: the emitted branch is unconditional (direction
	// TakenTrue), so no speculative lane is spawned for it, the predictor
	// never sees it, and only the taken edge carries abstract flow. The
	// not-taken edge stays in the CFG so post-dominator geometry —
	// and with it every vn_stop placement — is unchanged by resolution.
	Resolved  bool
	TakenTrue bool
	Dst       Reg      // result register for value-producing ops
	A, B      Value    // operands
	Idx       Value    // element index for Load/Store
	Sym       SymbolID // for Load/Store
	// CondBr: A = condition, TrueTarget/FalseTarget name successors.
	TrueTarget  BlockID
	FalseTarget BlockID
	// Line is the originating source line (0 for synthesized
	// instructions).
	Line int
	// ID is a program-unique instruction id assigned by Finalize; analyses
	// key per-access results on it.
	ID int
}

// BlockID identifies a basic block within a Function.
type BlockID int32

// Block is a basic block.
type Block struct {
	ID     BlockID
	Label  string
	Instrs []Instr
}

// Terminator returns the final instruction of the block.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := &b.Instrs[len(b.Instrs)-1]
	if !last.Op.IsTerminator() {
		return nil
	}
	return last
}

// Succs returns the successor block IDs in order (true target first for
// conditional branches). Resolved CondBrs still report both targets: the
// static CFG shape is resolution-independent by design. Succs is small
// enough to inline, so a caller that only ranges over the result keeps it
// on the stack (TestSuccsDoNotAllocate).
func (b *Block) Succs() []BlockID {
	if n := len(b.Instrs); n > 0 {
		switch t := &b.Instrs[n-1]; t.Op {
		case OpBr:
			return []BlockID{t.TrueTarget}
		case OpCondBr:
			return []BlockID{t.TrueTarget, t.FalseTarget}
		}
	}
	return nil
}

// EachUse calls fn with a pointer to every register operand the
// instruction reads, constants excluded, so callers can rewrite operands in
// place.
func (in *Instr) EachUse(fn func(*Value)) {
	use := func(v *Value) {
		if !v.IsConst {
			fn(v)
		}
	}
	switch in.Op {
	case OpNop, OpBr, OpConst, OpFence:
	case OpMov, OpNeg, OpNot, OpBool, OpRet, OpCondBr:
		use(&in.A)
	case OpLoad:
		use(&in.Idx)
	case OpStore:
		use(&in.Idx)
		use(&in.A)
	default:
		if in.Op.IsBinop() {
			use(&in.A)
			use(&in.B)
		}
	}
}

// TakenTarget returns the successor a Resolved CondBr always jumps to. It
// must only be called on resolved conditional branches.
func (in *Instr) TakenTarget() BlockID {
	if in.TakenTrue {
		return in.TrueTarget
	}
	return in.FalseTarget
}

// EffectiveSuccs returns the successors execution can actually follow: for a
// block ending in a Resolved CondBr, only the taken edge; otherwise Succs.
// Abstract flows, the interval analysis, and the concrete simulator all
// propagate along effective successors, while post-dominator computations
// keep using the full edge set (so vn_stop placements do not move when a
// branch resolves). Like Succs it inlines, and allocates nothing for a
// caller that does not keep the result.
func (b *Block) EffectiveSuccs() []BlockID {
	if n := len(b.Instrs); n > 0 {
		switch t := &b.Instrs[n-1]; {
		case t.Op == OpBr:
			return []BlockID{t.TrueTarget}
		case t.Op == OpCondBr && t.Resolved:
			return []BlockID{t.TakenTarget()}
		case t.Op == OpCondBr:
			return []BlockID{t.TrueTarget, t.FalseTarget}
		}
	}
	return nil
}

// Program is a lowered whole program: a single entry function (everything is
// inlined into main during lowering) plus the memory symbol table.
type Program struct {
	Name    string
	Symbols []*Symbol
	Blocks  []*Block
	Entry   BlockID
	NumRegs int
	// NumInstrs is the total instruction count after Finalize.
	NumInstrs int
	// SecretRegs lists virtual registers holding secret-tagged values that
	// never touch memory (`secret reg` declarations). Memory-resident
	// secrets carry the tag on their Symbol instead.
	SecretRegs []Reg
	// InputRegs lists virtual registers that are legitimately read before
	// any instruction writes them: registers bound to `reg` variables
	// declared without an initializer (they model inputs, reading the
	// machine's zero-initialized register file). SecretRegs are inputs too;
	// lowering records them in both lists. The def-before-use verifier
	// treats exactly these registers as defined at entry.
	InputRegs []Reg
	symByName map[string]*Symbol
}

// Symbol returns the symbol with the given id.
func (p *Program) Symbol(id SymbolID) *Symbol { return p.Symbols[id] }

// SymbolByName returns the named symbol, or nil.
func (p *Program) SymbolByName(name string) *Symbol {
	if p.symByName == nil {
		p.symByName = make(map[string]*Symbol, len(p.Symbols))
		for _, s := range p.Symbols {
			p.symByName[s.Name] = s
		}
	}
	return p.symByName[name]
}

// Block returns the block with the given id.
func (p *Program) Block(id BlockID) *Block { return p.Blocks[id] }

// Finalize assigns program-unique instruction IDs and instruction counts.
// It must be called (by the builder) before analyses run.
func (p *Program) Finalize() {
	id := 0
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			b.Instrs[i].ID = id
			id++
		}
	}
	p.NumInstrs = id
	p.symByName = nil
}

// CrossRegs partitions p's registers for the analyses that keep a value
// per register only at block boundaries (SCCP, DCE and the interval
// pre-pass). A register is cross-block when some block reads it before
// writing it, or more than one block writes it; any other register lives
// and dies within one block, so a block-local scratch table serves it.
// After full unrolling a program has tens of thousands of such
// temporaries, which per-block environments must not carry. crossIdx[r] is
// r's dense index among the numCross cross-block registers, or -1 when r is
// block-local.
func (p *Program) CrossRegs() (crossIdx []int, numCross int) {
	// writer[r] is the last block to write r, so within a block it equals
	// the block's id exactly when the block has already written r.
	writer := make([]BlockID, p.NumRegs)
	for r := range writer {
		writer[r] = -1
	}
	crossIdx = make([]int, p.NumRegs) // 1 marks cross-block until numbered
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			in.EachUse(func(v *Value) {
				if writer[v.Reg] != b.ID {
					crossIdx[v.Reg] = 1
				}
			})
			if in.Op.WritesDst() {
				if w := writer[in.Dst]; w >= 0 && w != b.ID {
					crossIdx[in.Dst] = 1
				}
				writer[in.Dst] = b.ID
			}
		}
	}
	for r, c := range crossIdx {
		if c == 1 {
			crossIdx[r] = numCross
			numCross++
		} else {
			crossIdx[r] = -1
		}
	}
	return crossIdx, numCross
}

// InstrCount returns the number of instructions in the program.
func (p *Program) InstrCount() int { return p.NumInstrs }

// CondBranchCount returns the number of conditional branches that can
// actually mispredict: CondBrs not marked Resolved by the pass pipeline.
// Resolved branches are unconditional jumps in the emitted program, so they
// spawn no speculative colors and do not count toward the paper's #Branch.
func (p *Program) CondBranchCount() int {
	n := 0
	for _, b := range p.Blocks {
		if t := b.Terminator(); t != nil && t.Op == OpCondBr && !t.Resolved {
			n++
		}
	}
	return n
}

// ResolvedBranchCount returns the number of CondBrs the pass pipeline
// statically decided.
func (p *Program) ResolvedBranchCount() int {
	n := 0
	for _, b := range p.Blocks {
		if t := b.Terminator(); t != nil && t.Op == OpCondBr && t.Resolved {
			n++
		}
	}
	return n
}

// FenceCount returns the number of fence instructions.
func (p *Program) FenceCount() int {
	n := 0
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == OpFence {
				n++
			}
		}
	}
	return n
}

// MemAccessCount returns the number of Load/Store instructions.
func (p *Program) MemAccessCount() int {
	n := 0
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == OpLoad || b.Instrs[i].Op == OpStore {
				n++
			}
		}
	}
	return n
}

// String prints the whole program in a readable assembly-like syntax.
func (p *Program) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "program %s (entry %s)\n", p.Name, p.Blocks[p.Entry].Label)
	for _, s := range p.Symbols {
		secret := ""
		if s.Secret {
			secret = " secret"
		}
		fmt.Fprintf(&sb, "  sym %s: %d x %dB%s\n", s.Name, s.Len, s.ElemSize, secret)
	}
	for _, b := range p.Blocks {
		fmt.Fprintf(&sb, "%s:\n", b.Label)
		for i := range b.Instrs {
			fmt.Fprintf(&sb, "  %s\n", p.FormatInstr(&b.Instrs[i]))
		}
	}
	return sb.String()
}

// FormatInstr renders one instruction.
func (p *Program) FormatInstr(in *Instr) string {
	symName := func(id SymbolID) string {
		if int(id) < len(p.Symbols) {
			return p.Symbols[id].Name
		}
		return fmt.Sprintf("sym%d", id)
	}
	blockLabel := func(id BlockID) string {
		if int(id) < len(p.Blocks) {
			return p.Blocks[id].Label
		}
		return fmt.Sprintf("bb%d", id)
	}
	switch in.Op {
	case OpConst:
		return fmt.Sprintf("%s = const %s", in.Dst, in.A)
	case OpMov:
		return fmt.Sprintf("%s = mov %s", in.Dst, in.A)
	case OpNeg, OpNot, OpBool:
		return fmt.Sprintf("%s = %s %s", in.Dst, in.Op, in.A)
	case OpLoad:
		return fmt.Sprintf("%s = load %s[%s]", in.Dst, symName(in.Sym), in.Idx)
	case OpStore:
		return fmt.Sprintf("store %s[%s] = %s", symName(in.Sym), in.Idx, in.A)
	case OpBr:
		return fmt.Sprintf("br %s", blockLabel(in.TrueTarget))
	case OpCondBr:
		if in.Resolved {
			dir := "F"
			if in.TakenTrue {
				dir = "T"
			}
			return fmt.Sprintf("condbr %s ? %s : %s  ; resolved=%s", in.A,
				blockLabel(in.TrueTarget), blockLabel(in.FalseTarget), dir)
		}
		return fmt.Sprintf("condbr %s ? %s : %s", in.A,
			blockLabel(in.TrueTarget), blockLabel(in.FalseTarget))
	case OpRet:
		return fmt.Sprintf("ret %s", in.A)
	case OpNop:
		return "nop"
	case OpFence:
		return "fence"
	default:
		return fmt.Sprintf("%s = %s %s, %s", in.Dst, in.Op, in.A, in.B)
	}
}
