package irverify

import (
	"slices"
	"strings"
	"testing"

	"specabsint/internal/ir"
)

// baseProgram builds a small, well-formed diamond with memory traffic, a
// conditional branch, and a register defined on only one path — the raw
// material every mutation corrupts.
//
//	entry: %r0 = const 1; %r1 = load a[%r0]; %r2 = cmplt %r1, 10
//	       condbr %r2 ? then : else
//	then:  store a[%r0] = %r1; br exit
//	else:  %r3 = add %r1, %r0; br exit
//	exit:  ret %r1
//
// %r4 is allocated but never referenced, so mutations can introduce a use of
// a never-defined register without going out of range.
func baseProgram(t *testing.T) *ir.Program {
	t.Helper()
	bd := ir.NewBuilder("base")
	a := bd.AddSymbol("a", 8, 4, false, []int64{1, 2, 3, 4})
	entry := bd.NewBlock("entry")
	then := bd.NewBlock("then")
	els := bd.NewBlock("else")
	exit := bd.NewBlock("exit")
	bd.SetBlock(entry)
	r0 := bd.Const(1)
	r1 := bd.Load(a, ir.RegVal(r0))
	r2 := bd.Binop(ir.OpCmpLt, ir.RegVal(r1), ir.ConstVal(10))
	bd.CondBr(ir.RegVal(r2), then, els)
	bd.SetBlock(then)
	bd.Store(a, ir.RegVal(r0), ir.RegVal(r1))
	bd.Br(exit)
	bd.SetBlock(els)
	bd.Binop(ir.OpAdd, ir.RegVal(r1), ir.RegVal(r0)) // %r3: else path only
	bd.Br(exit)
	bd.SetBlock(exit)
	bd.Ret(ir.RegVal(r1))
	bd.NewReg() // %r4: in range, never defined
	return bd.Finish(entry)
}

func TestVerifyCleanProgram(t *testing.T) {
	if err := Verify(baseProgram(t)); err != nil {
		t.Fatalf("base program should verify clean, got:\n%v", err)
	}
}

// TestMutationsRejected seeds 18 distinct IR corruptions and requires each
// to be rejected with a diagnostic from the right check family, positioned at
// the offending block (and instruction, where one exists).
func TestMutationsRejected(t *testing.T) {
	// Block indices in baseProgram: 0 entry, 1 then, 2 else, 3 exit.
	tests := []struct {
		name      string
		mutate    func(p *ir.Program)
		wantCheck string
		wantBlock string // expected Label; "" for program-level findings
		wantInstr int    // expected instruction index; -1 for block-level
	}{
		{
			name: "dangling branch edge",
			mutate: func(p *ir.Program) {
				p.Blocks[1].Instrs[1].TrueTarget = 99
			},
			wantCheck: "terminator", wantBlock: "then", wantInstr: 1,
		},
		{
			name: "dangling condbr false edge",
			mutate: func(p *ir.Program) {
				p.Blocks[0].Instrs[3].FalseTarget = -7
			},
			wantCheck: "terminator", wantBlock: "entry", wantInstr: 3,
		},
		{
			name: "use of never-defined register",
			mutate: func(p *ir.Program) {
				p.Blocks[2].Instrs[0].A = ir.RegVal(4)
			},
			wantCheck: "def-before-use", wantBlock: "else", wantInstr: 0,
		},
		{
			name: "use defined on only one path",
			mutate: func(p *ir.Program) {
				p.Blocks[3].Instrs[0].A = ir.RegVal(3)
			},
			wantCheck: "def-before-use", wantBlock: "exit", wantInstr: 0,
		},
		{
			name: "bad symbol id",
			mutate: func(p *ir.Program) {
				p.Blocks[0].Instrs[1].Sym = 9
			},
			wantCheck: "symbol", wantBlock: "entry", wantInstr: 1,
		},
		{
			name: "non-positive element size",
			mutate: func(p *ir.Program) {
				p.Symbols[0].ElemSize = 0
			},
			wantCheck: "symbol", wantBlock: "", wantInstr: -1,
		},
		{
			name: "oversized initializer",
			mutate: func(p *ir.Program) {
				p.Symbols[0].Init = make([]int64, 9)
			},
			wantCheck: "symbol", wantBlock: "", wantInstr: -1,
		},
		{
			name: "duplicate symbol name",
			mutate: func(p *ir.Program) {
				p.Symbols = append(p.Symbols, &ir.Symbol{ID: 1, Name: "a", ElemSize: 8, Len: 1})
			},
			wantCheck: "symbol", wantBlock: "", wantInstr: -1,
		},
		{
			name: "const with register operand",
			mutate: func(p *ir.Program) {
				p.Blocks[0].Instrs[0].A = ir.RegVal(0)
			},
			wantCheck: "operand", wantBlock: "entry", wantInstr: 0,
		},
		{
			name: "operand register out of range",
			mutate: func(p *ir.Program) {
				p.Blocks[2].Instrs[0].B = ir.RegVal(1000)
			},
			wantCheck: "operand", wantBlock: "else", wantInstr: 0,
		},
		{
			name: "destination register out of range",
			mutate: func(p *ir.Program) {
				p.Blocks[0].Instrs[1].Dst = -2
			},
			wantCheck: "operand", wantBlock: "entry", wantInstr: 1,
		},
		{
			name: "resolved marker on non-branch",
			mutate: func(p *ir.Program) {
				p.Blocks[1].Instrs[1].Resolved = true
			},
			wantCheck: "operand", wantBlock: "then", wantInstr: 1,
		},
		{
			name: "empty block",
			mutate: func(p *ir.Program) {
				p.Blocks[1].Instrs = nil
				p.Finalize() // keep instruction ids dense so only emptiness is at fault
			},
			wantCheck: "terminator", wantBlock: "then", wantInstr: -1,
		},
		{
			name: "terminator mid-block",
			mutate: func(p *ir.Program) {
				b := p.Blocks[2]
				b.Instrs = append([]ir.Instr{{Op: ir.OpBr, TrueTarget: 3}}, b.Instrs...)
				p.Finalize()
			},
			wantCheck: "terminator", wantBlock: "else", wantInstr: 0,
		},
		{
			name: "missing terminator",
			mutate: func(p *ir.Program) {
				b := p.Blocks[2]
				b.Instrs = b.Instrs[:1]
				p.Finalize()
			},
			wantCheck: "terminator", wantBlock: "else", wantInstr: 0,
		},
		{
			name: "instruction id corruption",
			mutate: func(p *ir.Program) {
				p.Blocks[3].Instrs[0].ID = 999
			},
			wantCheck: "program", wantBlock: "", wantInstr: -1,
		},
		{
			name: "entry out of range",
			mutate: func(p *ir.Program) {
				p.Entry = 42
			},
			wantCheck: "program", wantBlock: "", wantInstr: -1,
		},
		{
			name: "degenerate lane pair",
			mutate: func(p *ir.Program) {
				p.Blocks[0].Instrs[3].FalseTarget = 1 // == TrueTarget
			},
			wantCheck: "spec-flow", wantBlock: "entry", wantInstr: 3,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			prog := baseProgram(t)
			tt.mutate(prog)
			err := Verify(prog)
			if err == nil {
				t.Fatalf("corruption %q was not rejected", tt.name)
			}
			verr, ok := err.(*Error)
			if !ok {
				t.Fatalf("want *irverify.Error, got %T: %v", err, err)
			}
			for _, d := range verr.Diags {
				if d.Check != tt.wantCheck {
					continue
				}
				if tt.wantBlock != "" && d.Label != tt.wantBlock {
					continue
				}
				if tt.wantInstr >= 0 && d.Instr != tt.wantInstr {
					continue
				}
				// Positioned diagnostic found; its rendering must name the
				// block so a human can find the corruption.
				if tt.wantBlock != "" && !strings.Contains(d.String(), tt.wantBlock) {
					t.Fatalf("diagnostic does not name block %q: %s", tt.wantBlock, d)
				}
				return
			}
			t.Fatalf("no [%s] diagnostic at block %q instr %d; got:\n%v",
				tt.wantCheck, tt.wantBlock, tt.wantInstr, err)
		})
	}
}

// TestInputRegsDefinedAtEntry checks that registers listed in InputRegs (and
// SecretRegs) may be read without a prior write — they model the machine's
// zero-initialized register file.
func TestInputRegsDefinedAtEntry(t *testing.T) {
	prog := baseProgram(t)
	// Retarget else's add to read %r4 (never written)...
	prog.Blocks[2].Instrs[0].A = ir.RegVal(4)
	if err := Verify(prog); err == nil {
		t.Fatal("read of %r4 should be rejected before it is marked as input")
	}
	// ...then declare %r4 an input register: the same program verifies clean.
	prog.InputRegs = append(prog.InputRegs, 4)
	if err := Verify(prog); err != nil {
		t.Fatalf("input register read should verify clean, got:\n%v", err)
	}
}

// TestLoopDefBeforeUse checks the must-defined dataflow converges on loops:
// a register written in a loop body and read after the loop is fine when the
// loop also writes it on the zero-trip path.
func TestLoopDefBeforeUse(t *testing.T) {
	bd := ir.NewBuilder("loop")
	entry := bd.NewBlock("entry")
	head := bd.NewBlock("head")
	body := bd.NewBlock("body")
	exit := bd.NewBlock("exit")
	bd.SetBlock(entry)
	i := bd.Const(0)
	bd.Br(head)
	bd.SetBlock(head)
	c := bd.Binop(ir.OpCmpLt, ir.RegVal(i), ir.ConstVal(4))
	bd.CondBr(ir.RegVal(c), body, exit)
	bd.SetBlock(body)
	next := bd.Binop(ir.OpAdd, ir.RegVal(i), ir.ConstVal(1))
	bd.Mov(i, ir.RegVal(next))
	bd.Br(head)
	bd.SetBlock(exit)
	bd.Ret(ir.RegVal(i))
	prog := bd.Finish(entry)
	if err := Verify(prog); err != nil {
		t.Fatalf("loop program should verify clean, got:\n%v", err)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Check: "operand", Block: 2, Label: "else", Instr: 0, ID: 7, Line: 12,
		Msg: "register %r1000 out of range"}
	s := d.String()
	for _, want := range []string{"[operand]", "else", "instr 0", "id 7", "line 12", "%r1000"} {
		if !strings.Contains(s, want) {
			t.Fatalf("diagnostic %q missing %q", s, want)
		}
	}
}

// TestDefUseMatchesIR: the verifier keeps its own definition of what each
// opcode reads and writes, as the independent check on the IR. It must
// agree with ir.Op.WritesDst and (*ir.Instr).EachUse on every opcode, with
// register and with constant operands.
func TestDefUseMatchesIR(t *testing.T) {
	for op := ir.OpNop; op <= ir.OpFence; op++ {
		for _, constants := range []bool{false, true} {
			val := func(r ir.Reg) ir.Value {
				if constants {
					return ir.ConstVal(int64(r))
				}
				return ir.RegVal(r)
			}
			in := ir.Instr{Op: op, Dst: 1, A: val(2), B: val(3), Idx: val(4)}
			var want, got []ir.Reg
			forEachUse(&in, func(r ir.Reg) { want = append(want, r) })
			in.EachUse(func(v *ir.Value) { got = append(got, v.Reg) })
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%v (constants %v): EachUse reads %v, the verifier %v", op, constants, got, want)
			}
			if _, def := defOf(&in); op.WritesDst() != def {
				t.Errorf("%v: WritesDst %v, the verifier %v", op, op.WritesDst(), def)
			}
		}
	}
}
