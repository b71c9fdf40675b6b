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
	prog, err := bd.Finish(entry)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestBuilderProducesValidProgram(t *testing.T) {
	prog := buildTiny(t)
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
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
	prog, err := bd.Finish(entry)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(prog.Block(entry).Instrs); n != 1 {
		t.Errorf("entry has %d instrs, want 1", n)
	}
}

func TestUnterminatedBlockGetsRet(t *testing.T) {
	bd := NewBuilder("fall")
	entry := bd.NewBlock("entry")
	bd.SetBlock(entry)
	bd.Const(3)
	prog, err := bd.Finish(entry)
	if err != nil {
		t.Fatal(err)
	}
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
	prog, err := bd.Finish(entry)
	if err != nil {
		t.Fatal(err)
	}
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
	prog, err := bd.Finish(entry)
	if err != nil {
		t.Fatal(err)
	}
	got := prog.FormatInstr(&prog.Block(entry).Instrs[0])
	if !strings.Contains(got, "load a[2]") {
		t.Errorf("load formatting: %q", got)
	}
	got = prog.FormatInstr(&prog.Block(entry).Instrs[1])
	if !strings.Contains(got, "store a[3]") {
		t.Errorf("store formatting: %q", got)
	}
}

func TestValidateCatchesMisplacedTerminator(t *testing.T) {
	prog := buildTiny(t)
	// Corrupt: append an instruction after the terminator of block a.
	prog.Blocks[1].Instrs = append(prog.Blocks[1].Instrs, Instr{Op: OpConst, Dst: 0, A: ConstVal(1)})
	if err := prog.Validate(); err == nil {
		t.Fatal("expected validation error")
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
