// Package interp executes IR programs concretely. It provides both a simple
// run-to-completion entry point and a single-step API with cloneable machine
// states, which the speculative CPU simulator uses to implement checkpoint
// and rollback.
package interp

import (
	"errors"
	"fmt"

	"specabsint/internal/ir"
)

// ErrOutOfBounds is returned when a memory access falls outside its symbol.
// The speculative simulator treats it as a faulting wrong-path access and
// squashes the speculation; a committed (architectural) out-of-bounds access
// is a program bug.
var ErrOutOfBounds = errors.New("interp: memory access out of bounds")

// ErrDivideByZero is returned for division or modulo by zero.
var ErrDivideByZero = errors.New("interp: division by zero")

// ErrStepLimit is returned when Run exceeds its step budget.
var ErrStepLimit = errors.New("interp: step limit exceeded")

// State is a complete, copyable machine state.
type State struct {
	Regs  []int64
	Mem   [][]int64 // indexed by SymbolID, then element
	Block ir.BlockID
	IP    int // instruction index within Block
	Done  bool
	Ret   int64
	Steps int64
}

// Clone deep-copies the state (used for speculation checkpoints).
func (s *State) Clone() *State {
	c := &State{
		Regs:  append([]int64(nil), s.Regs...),
		Mem:   make([][]int64, len(s.Mem)),
		Block: s.Block,
		IP:    s.IP,
		Done:  s.Done,
		Ret:   s.Ret,
		Steps: s.Steps,
	}
	for i, m := range s.Mem {
		c.Mem[i] = append([]int64(nil), m...)
	}
	return c
}

// Hooks observe execution. Any hook may be nil.
type Hooks struct {
	// OnMem fires for every Load/Store with the accessed element index.
	OnMem func(in *ir.Instr, sym ir.SymbolID, elem int64, isStore bool)
	// OnBranch fires for every conditional branch with its outcome.
	OnBranch func(in *ir.Instr, taken bool)
}

// Machine executes a program.
type Machine struct {
	Prog  *ir.Program
	Hooks Hooks
	// ResolveOOB, when non-nil, redirects an out-of-bounds access to
	// another symbol/element instead of faulting — the speculative
	// simulator installs it during wrong-path execution, where real
	// hardware reads whatever memory sits at the computed address
	// (Spectre v1). Returning ok=false faults as usual.
	ResolveOOB func(sym ir.SymbolID, elem int64) (ir.SymbolID, int64, bool)
}

// NewMachine creates an executor for prog.
func NewMachine(prog *ir.Program) *Machine {
	return &Machine{Prog: prog}
}

// NewState builds the initial state: registers zeroed, memory zeroed and
// then filled from symbol initializers.
func (m *Machine) NewState() *State {
	st := &State{
		Regs:  make([]int64, m.Prog.NumRegs),
		Mem:   make([][]int64, len(m.Prog.Symbols)),
		Block: m.Prog.Entry,
	}
	for i, sym := range m.Prog.Symbols {
		st.Mem[i] = make([]int64, sym.Len)
		copy(st.Mem[i], sym.Init)
	}
	return st
}

func (s *State) value(v ir.Value) int64 {
	if v.IsConst {
		return v.Const
	}
	return s.Regs[v.Reg]
}

// CurrentInstr returns the instruction the state is about to execute, or nil
// when the state is done.
func (m *Machine) CurrentInstr(s *State) *ir.Instr {
	if s.Done {
		return nil
	}
	b := m.Prog.Block(s.Block)
	return &b.Instrs[s.IP]
}

// Step executes exactly one instruction, advancing the state.
func (m *Machine) Step(s *State) error {
	if s.Done {
		return fmt.Errorf("interp: step after completion")
	}
	in := m.CurrentInstr(s)
	s.Steps++
	advance := func() {
		s.IP++
	}
	switch in.Op {
	case ir.OpNop, ir.OpFence:
		// A fence is architecturally a no-op; its speculation-killing effect
		// lives in the speculative simulator and the abstract engine.
		advance()
	case ir.OpConst, ir.OpMov:
		s.Regs[in.Dst] = s.value(in.A)
		advance()
	case ir.OpNeg:
		s.Regs[in.Dst] = -s.value(in.A)
		advance()
	case ir.OpNot:
		s.Regs[in.Dst] = ^s.value(in.A)
		advance()
	case ir.OpBool:
		if s.value(in.A) != 0 {
			s.Regs[in.Dst] = 1
		} else {
			s.Regs[in.Dst] = 0
		}
		advance()
	case ir.OpLoad:
		symID, elem, err := m.resolveAccess(in, s.value(in.Idx))
		if err != nil {
			return err
		}
		if m.Hooks.OnMem != nil {
			m.Hooks.OnMem(in, symID, elem, false)
		}
		s.Regs[in.Dst] = s.Mem[symID][elem]
		advance()
	case ir.OpStore:
		symID, elem, err := m.resolveAccess(in, s.value(in.Idx))
		if err != nil {
			return err
		}
		if m.Hooks.OnMem != nil {
			m.Hooks.OnMem(in, symID, elem, true)
		}
		s.Mem[symID][elem] = s.value(in.A)
		advance()
	case ir.OpBr:
		s.Block = in.TrueTarget
		s.IP = 0
	case ir.OpCondBr:
		if in.Resolved {
			// The emitted program has an unconditional jump here: the
			// condition is not evaluated, the branch hook does not fire, and
			// even wrong-path (speculative) execution follows the taken edge.
			s.Block = in.TakenTarget()
			s.IP = 0
			break
		}
		taken := s.value(in.A) != 0
		if m.Hooks.OnBranch != nil {
			m.Hooks.OnBranch(in, taken)
		}
		if taken {
			s.Block = in.TrueTarget
		} else {
			s.Block = in.FalseTarget
		}
		s.IP = 0
	case ir.OpRet:
		s.Ret = s.value(in.A)
		s.Done = true
	default:
		v, err := EvalBinop(in.Op, s.value(in.A), s.value(in.B))
		if err != nil {
			return err
		}
		s.Regs[in.Dst] = v
		advance()
	}
	return nil
}

// resolveAccess bounds-checks an access, consulting ResolveOOB for
// out-of-bounds element indices.
func (m *Machine) resolveAccess(in *ir.Instr, elem int64) (ir.SymbolID, int64, error) {
	sym := m.Prog.Symbol(in.Sym)
	if elem >= 0 && elem < int64(sym.Len) {
		return in.Sym, elem, nil
	}
	if m.ResolveOOB != nil {
		if s2, e2, ok := m.ResolveOOB(in.Sym, elem); ok {
			return s2, e2, nil
		}
	}
	return 0, 0, fmt.Errorf("%w: access %s[%d] (len %d)", ErrOutOfBounds, sym.Name, elem, sym.Len)
}

// EvalBinop evaluates a two-operand op with the machine's exact semantics
// (shift amounts masked to 6 bits, arithmetic right shift, faulting
// division). The pass pipeline's constant folder uses it too, so compile-time
// folding and runtime execution can never disagree.
func EvalBinop(op ir.Op, a, b int64) (int64, error) {
	switch op {
	case ir.OpAdd:
		return a + b, nil
	case ir.OpSub:
		return a - b, nil
	case ir.OpMul:
		return a * b, nil
	case ir.OpDiv:
		if b == 0 {
			return 0, ErrDivideByZero
		}
		return a / b, nil
	case ir.OpRem:
		if b == 0 {
			return 0, ErrDivideByZero
		}
		return a % b, nil
	case ir.OpAnd:
		return a & b, nil
	case ir.OpOr:
		return a | b, nil
	case ir.OpXor:
		return a ^ b, nil
	case ir.OpShl:
		return a << (uint64(b) & 63), nil
	case ir.OpShr:
		return a >> (uint64(b) & 63), nil
	case ir.OpCmpLt:
		return b2i(a < b), nil
	case ir.OpCmpLe:
		return b2i(a <= b), nil
	case ir.OpCmpGt:
		return b2i(a > b), nil
	case ir.OpCmpGe:
		return b2i(a >= b), nil
	case ir.OpCmpEq:
		return b2i(a == b), nil
	case ir.OpCmpNe:
		return b2i(a != b), nil
	}
	return 0, fmt.Errorf("interp: unknown op %s", op)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Run executes the program to completion (or until maxSteps) and returns
// the final state.
func (m *Machine) Run(maxSteps int64) (*State, error) {
	st := m.NewState()
	return st, m.RunState(st, maxSteps)
}

// RunState executes from st until completion or the step budget runs out.
func (m *Machine) RunState(st *State, maxSteps int64) error {
	for !st.Done {
		if st.Steps >= maxSteps {
			return ErrStepLimit
		}
		if err := m.Step(st); err != nil {
			return err
		}
	}
	return nil
}
