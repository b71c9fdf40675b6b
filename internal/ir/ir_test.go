package ir

import (
	"strings"
	"testing"
	"unsafe"
)

// buildTiny constructs: entry: r0=const 1; condbr r0 ? a : b; a: ret 1; b: ret 0
func buildTiny(t *testing.T) *Program {
	t.Helper()
	bd := NewBuilder("tiny")
	entry := bd.NewBlock("entry")
	a := bd.NewBlock("a")
	b := bd.NewBlock("b")
	bd.SetBlock(entry)
	r := bd.Const(1)
	bd.CondBr(RegVal(r), a, b)
	bd.SetBlock(a)
	bd.Ret(ConstVal(1))
	bd.SetBlock(b)
	bd.Ret(ConstVal(0))
	return bd.Finish(entry)
}

func TestBuilderProducesValidProgram(t *testing.T) {
	prog := buildTiny(t)
	if prog.InstrCount() != 4 {
		t.Errorf("instr count = %d, want 4", prog.InstrCount())
	}
	if prog.CondBranchCount() != 1 {
		t.Errorf("cond branches = %d, want 1", prog.CondBranchCount())
	}
}

func TestSuccs(t *testing.T) {
	prog := buildTiny(t)
	succs := prog.Block(prog.Entry).Succs()
	if len(succs) != 2 || succs[0] != 1 || succs[1] != 2 {
		t.Errorf("succs = %v", succs)
	}
	if got := prog.Block(1).Succs(); got != nil {
		t.Errorf("ret block has succs %v", got)
	}
}

func TestInstrIDsAreUnique(t *testing.T) {
	prog := buildTiny(t)
	seen := map[int]bool{}
	for _, b := range prog.Blocks {
		for i := range b.Instrs {
			id := b.Instrs[i].ID
			if seen[id] {
				t.Fatalf("duplicate instruction id %d", id)
			}
			seen[id] = true
		}
	}
}

func TestDeadCodeAfterTerminatorDropped(t *testing.T) {
	bd := NewBuilder("dead")
	entry := bd.NewBlock("entry")
	bd.SetBlock(entry)
	bd.Ret(ConstVal(0))
	bd.Const(42) // dead, must be dropped
	prog := bd.Finish(entry)
	if n := len(prog.Block(entry).Instrs); n != 1 {
		t.Errorf("entry has %d instrs, want 1", n)
	}
}

func TestUnterminatedBlockGetsRet(t *testing.T) {
	bd := NewBuilder("fall")
	entry := bd.NewBlock("entry")
	bd.SetBlock(entry)
	bd.Const(3)
	prog := bd.Finish(entry)
	term := prog.Block(entry).Terminator()
	if term == nil || term.Op != OpRet {
		t.Fatal("expected synthesized ret")
	}
}

func TestSymbolLookup(t *testing.T) {
	bd := NewBuilder("syms")
	sid := bd.AddSymbol("tbl", 4, 16, true, []int64{1, 2})
	entry := bd.NewBlock("entry")
	bd.SetBlock(entry)
	bd.Load(sid, ConstVal(0))
	prog := bd.Finish(entry)
	s := prog.SymbolByName("tbl")
	if s == nil || s.ID != sid || !s.Secret || s.SizeBytes() != 64 {
		t.Fatalf("bad symbol %+v", s)
	}
	if prog.SymbolByName("nope") != nil {
		t.Error("lookup of missing symbol should be nil")
	}
	if prog.MemAccessCount() != 1 {
		t.Errorf("mem accesses = %d, want 1", prog.MemAccessCount())
	}
}

func TestProgramString(t *testing.T) {
	prog := buildTiny(t)
	s := prog.String()
	for _, want := range []string{"entry:", "condbr", "ret"} {
		if !strings.Contains(s, want) {
			t.Errorf("program dump missing %q:\n%s", want, s)
		}
	}
}

func TestFormatInstr(t *testing.T) {
	bd := NewBuilder("fmt")
	sid := bd.AddSymbol("a", 4, 8, false, nil)
	entry := bd.NewBlock("entry")
	bd.SetBlock(entry)
	r := bd.Load(sid, ConstVal(2))
	bd.Store(sid, ConstVal(3), RegVal(r))
	bd.Ret(RegVal(r))
	prog := bd.Finish(entry)
	got := prog.FormatInstr(&prog.Block(entry).Instrs[0])
	if !strings.Contains(got, "load a[2]") {
		t.Errorf("load formatting: %q", got)
	}
	got = prog.FormatInstr(&prog.Block(entry).Instrs[1])
	if !strings.Contains(got, "store a[3]") {
		t.Errorf("store formatting: %q", got)
	}
}

func TestOpPredicates(t *testing.T) {
	if !OpAdd.IsBinop() || OpLoad.IsBinop() {
		t.Error("IsBinop misclassifies")
	}
	if !OpBr.IsTerminator() || !OpCondBr.IsTerminator() || !OpRet.IsTerminator() {
		t.Error("IsTerminator misclassifies terminators")
	}
	if OpLoad.IsTerminator() {
		t.Error("load is not a terminator")
	}
}

// TestInstrSize keeps Instr at 88 bytes or less: programs hold tens of
// thousands of instructions, and every pass and step builder walks them.
func TestInstrSize(t *testing.T) {
	if got := unsafe.Sizeof(Instr{}); got > 88 {
		t.Fatalf("unsafe.Sizeof(Instr{}) = %d, want <= 88", got)
	}
}

// TestSuccsDoNotAllocate checks that Succs and EffectiveSuccs stay small
// enough to inline: a caller that only ranges over the result then keeps it
// on the stack.
func TestSuccsDoNotAllocate(t *testing.T) {
	prog := buildTiny(t)
	entry := prog.Block(prog.Entry)
	sum := BlockID(0)
	allocs := testing.AllocsPerRun(100, func() {
		for _, s := range entry.Succs() {
			sum += s
		}
		for _, s := range entry.EffectiveSuccs() {
			sum += s
		}
	})
	if allocs != 0 {
		t.Fatalf("ranging over successors allocated %.0f times per run, want 0", allocs)
	}
	if sum == 0 {
		t.Fatal("no successors seen")
	}
}

func TestAllBinops(t *testing.T) {
	cases := []struct {
		op      Op
		a, b, r int64
	}{
		{OpAdd, 3, 4, 7},
		{OpSub, 3, 4, -1},
		{OpMul, 3, 4, 12},
		{OpDiv, 17, 5, 3},
		{OpRem, 17, 5, 2},
		{OpAnd, 12, 10, 8},
		{OpOr, 12, 10, 14},
		{OpXor, 12, 10, 6},
		{OpShl, 1, 4, 16},
		{OpShl, 1, 65, 2}, // shift amounts are masked to 6 bits
		{OpShr, 16, 3, 2},
		{OpShr, -16, 2, -4}, // arithmetic right shift
		{OpCmpLt, 1, 2, 1},
		{OpCmpLe, 2, 2, 1},
		{OpCmpGt, 1, 2, 0},
		{OpCmpGe, 2, 2, 1},
		{OpCmpEq, 5, 5, 1},
		{OpCmpNe, 5, 5, 0},
	}
	for _, tc := range cases {
		got, ok := EvalBinop(tc.op, tc.a, tc.b)
		if !ok {
			t.Fatalf("%s(%d,%d) faulted", tc.op, tc.a, tc.b)
		}
		if got != tc.r {
			t.Errorf("%s(%d,%d) = %d, want %d", tc.op, tc.a, tc.b, got, tc.r)
		}
	}
	for _, op := range []Op{OpDiv, OpRem} {
		if _, ok := EvalBinop(op, 1, 0); ok {
			t.Errorf("%s by zero did not fault", op)
		}
	}
	for _, tc := range []struct {
		op   Op
		a, r int64
	}{{OpNeg, 5, -5}, {OpNot, 0, -1}, {OpBool, 7, 1}, {OpBool, 0, 0}} {
		if got := EvalUnop(tc.op, tc.a); got != tc.r {
			t.Errorf("%s(%d) = %d, want %d", tc.op, tc.a, got, tc.r)
		}
	}
}

// TestCrossRegs partitions a loop's registers: one its head reads before
// writing (an input), one defined in entry and read in the body, one that
// two blocks write, and temporaries written before their block reads them.
func TestCrossRegs(t *testing.T) {
	bd := NewBuilder("cross")
	entry, head, body, exit := bd.NewBlock("entry"), bd.NewBlock("head"), bd.NewBlock("body"), bd.NewBlock("exit")
	in := bd.NewReg()
	bd.MarkInputReg(in)
	bd.SetBlock(entry)
	step := bd.Const(1)  // read by body
	twice := bd.Const(0) // written again by body
	local := bd.Const(5) // read only in entry, after its write
	bd.Mov(twice, RegVal(local))
	bd.Br(head)
	bd.SetBlock(head)
	cond := bd.Binop(OpCmpLt, RegVal(in), ConstVal(9)) // in: read before any write
	bd.CondBr(RegVal(cond), body, exit)
	bd.SetBlock(body)
	next := bd.Binop(OpAdd, RegVal(in), RegVal(step))
	bd.Mov(in, RegVal(next))
	bd.Mov(twice, RegVal(next))
	bd.Br(head)
	bd.SetBlock(exit)
	bd.Ret(RegVal(twice))
	prog := bd.Finish(entry)

	crossIdx, numCross := prog.CrossRegs()
	want := map[Reg]bool{in: true, step: true, twice: true, local: false, cond: false, next: false}
	n := 0
	for r, cross := range want {
		if got := crossIdx[r] >= 0; got != cross {
			t.Errorf("%s: cross-block = %v, want %v", r, got, cross)
		}
		if cross {
			n++
		}
	}
	if numCross != n {
		t.Errorf("numCross = %d, want %d", numCross, n)
	}
}
