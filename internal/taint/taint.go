// Package taint computes which values in an IR program depend on secrets
// (symbols declared with the `secret` qualifier). The side-channel detector
// combines this with the speculative cache analysis: a secret-dependent
// memory address whose hit/miss behaviour is not constant leaks timing
// information about the secret.
package taint

import (
	"specabsint/internal/ir"
)

// Result holds the taint facts for a program.
type Result struct {
	// Regs[r] reports whether virtual register r may carry secret data.
	Regs []bool
	// Scalars[sym] reports whether a scalar memory cell may hold secret
	// data; Arrays[sym] whether any element of an array may.
	Scalars []bool
	Arrays  []bool
	// SecretIndexed lists the ids of Load/Store instructions whose element
	// index may depend on a secret — the cache side-channel sources.
	SecretIndexed []int
	// SecretBranches lists CondBr instruction ids whose condition may
	// depend on a secret — control-flow timing channels (reported
	// separately; the cache analysis covers the data-cache channel).
	SecretBranches []int
}

// IsSecretIndexed reports whether the instruction id is a secret-indexed
// access.
func (r *Result) IsSecretIndexed(id int) bool {
	for _, x := range r.SecretIndexed {
		if x == id {
			return true
		}
	}
	return false
}

// Analyze propagates taint to a fixpoint. The analysis is flow-insensitive
// (a cell tainted anywhere is tainted everywhere), which over-approximates
// all executions including speculative ones — exactly what a sound leak
// detector needs.
func Analyze(prog *ir.Program) *Result {
	res := newResult(prog)
	for _, s := range prog.Symbols {
		if s.Secret {
			*res.cell(prog, s.ID) = true
		}
	}
	// `secret reg` declarations have no Symbol; the lowerer tags the
	// register directly.
	for _, r := range prog.SecretRegs {
		res.Regs[r] = true
	}
	res.propagate(prog, nil)

	for _, b := range prog.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.OpLoad, ir.OpStore:
				if res.tainted(in.Idx) {
					res.SecretIndexed = append(res.SecretIndexed, in.ID)
				}
			case ir.OpCondBr:
				if res.tainted(in.A) {
					res.SecretBranches = append(res.SecretBranches, in.ID)
				}
			}
		}
	}
	return res
}

func newResult(prog *ir.Program) *Result {
	return &Result{
		Regs:    make([]bool, prog.NumRegs),
		Scalars: make([]bool, len(prog.Symbols)),
		Arrays:  make([]bool, len(prog.Symbols)),
	}
}

// tainted reports whether an operand may carry tainted data.
func (r *Result) tainted(v ir.Value) bool { return !v.IsConst && r.Regs[v.Reg] }

// cell returns the taint bit of the memory sym names: the scalar cell, or
// the contents of the whole array.
func (r *Result) cell(prog *ir.Program, sym ir.SymbolID) *bool {
	if prog.Symbol(sym).Len == 1 {
		return &r.Scalars[sym]
	}
	return &r.Arrays[sym]
}

// propagate runs the flow-insensitive fixpoint from the taint already in r,
// shared by Analyze and AnalyzeSpeculative: an operation's result is tainted
// when an operand is, a load's when its cell or its index is (the value
// reveals the index) or when the load's id is in sourceLoads, and a cell once
// a tainted value or index is stored into it. sourceLoads may be nil.
func (r *Result) propagate(prog *ir.Program, sourceLoads map[int]bool) {
	for changed := true; changed; {
		changed = false
		setReg := func(reg ir.Reg, v bool) {
			if v && !r.Regs[reg] {
				r.Regs[reg] = true
				changed = true
			}
		}
		for _, b := range prog.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				switch in.Op {
				case ir.OpConst:
					// never tainted
				case ir.OpMov, ir.OpNeg, ir.OpNot, ir.OpBool:
					setReg(in.Dst, r.tainted(in.A))
				case ir.OpLoad:
					setReg(in.Dst, *r.cell(prog, in.Sym) || r.tainted(in.Idx) || sourceLoads[in.ID])
				case ir.OpStore:
					if c := r.cell(prog, in.Sym); !*c && (r.tainted(in.A) || r.tainted(in.Idx)) {
						*c = true
						changed = true
					}
				case ir.OpBr, ir.OpCondBr, ir.OpRet, ir.OpNop, ir.OpFence:
					// no dataflow
				default: // binops
					setReg(in.Dst, r.tainted(in.A) || r.tainted(in.B))
				}
			}
		}
	}
}
