package absint

import (
	"math"
	"testing"

	"specabsint/internal/cfg"
	"specabsint/internal/ir"
)

// constDomain is a toy sign domain over the single register r0, used to
// exercise the generic solver: states are lower bounds on r0 in {-inf..inf}
// joined by min... — concretely we track the *minimum* constant ever moved
// into r0, a simple join-semilattice.
type minDomain struct{}

func (minDomain) Bottom() int64 { return math.MaxInt64 }
func (minDomain) Entry() int64  { return math.MaxInt64 }

func (minDomain) TransferBlock(b *ir.Block, s int64) int64 {
	for i := range b.Instrs {
		in := &b.Instrs[i]
		if in.Op == ir.OpConst && in.Dst == 0 && in.A.Const < s {
			s = in.A.Const
		}
	}
	return s
}

func (minDomain) Join(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func (minDomain) Leq(a, b int64) bool { return a >= b } // smaller = weaker here

func (minDomain) Widen(prev, next int64) int64 {
	if next < prev {
		return math.MinInt64
	}
	return next
}

// diamondProg: entry assigns 10; arms assign 5 / 7; join returns.
func diamondProg(t *testing.T) *ir.Program {
	t.Helper()
	bd := ir.NewBuilder("d")
	entry := bd.NewBlock("entry")
	a := bd.NewBlock("a")
	b := bd.NewBlock("b")
	join := bd.NewBlock("join")
	bd.SetBlock(entry)
	r0 := bd.NewReg()
	if r0 != 0 {
		t.Fatal("expected r0")
	}
	bd.Mov(r0, ir.ConstVal(0))
	cnd := bd.Const(1)
	bd.CondBr(ir.RegVal(cnd), a, b)
	bd.SetBlock(a)
	bd.Br(join)
	bd.SetBlock(b)
	bd.Br(join)
	bd.SetBlock(join)
	bd.Ret(ir.ConstVal(0))
	prog := bd.Finish(entry)
	// Patch in the constants we care about: entry writes 10 to r0, arm a
	// writes 5, arm b writes 7.
	prog.Blocks[0].Instrs = append([]ir.Instr{{Op: ir.OpConst, Dst: 0, A: ir.ConstVal(10)}}, prog.Blocks[0].Instrs...)
	prog.Blocks[1].Instrs = append([]ir.Instr{{Op: ir.OpConst, Dst: 0, A: ir.ConstVal(5)}}, prog.Blocks[1].Instrs...)
	prog.Blocks[2].Instrs = append([]ir.Instr{{Op: ir.OpConst, Dst: 0, A: ir.ConstVal(7)}}, prog.Blocks[2].Instrs...)
	prog.Finalize()
	return prog
}

func TestSolveDiamond(t *testing.T) {
	prog := diamondProg(t)
	res := Solve[int64](prog, cfg.New(prog).Succs, minDomain{}, Options{})
	// Join block sees min(5, 7) = 5.
	if res.In[3] != 5 {
		t.Errorf("join in-state = %d, want 5", res.In[3])
	}
	// Arms see the entry's 10.
	if res.In[1] != 10 || res.In[2] != 10 {
		t.Errorf("arm in-states = %d, %d, want 10, 10", res.In[1], res.In[2])
	}
	if res.Iterations < 4 {
		t.Errorf("iterations = %d, want >= 4", res.Iterations)
	}
}

func TestSolveLoopTerminatesWithWidening(t *testing.T) {
	// entry -> head -> body -> head (the body keeps lowering r0 via a
	// different mechanism — here we just check the loop terminates and the
	// head state stabilizes).
	bd := ir.NewBuilder("loop")
	entry := bd.NewBlock("entry")
	head := bd.NewBlock("head")
	body := bd.NewBlock("body")
	exit := bd.NewBlock("exit")
	bd.SetBlock(entry)
	r0 := bd.NewReg()
	bd.Mov(r0, ir.ConstVal(100))
	bd.Br(head)
	bd.SetBlock(head)
	c := bd.Const(1)
	bd.CondBr(ir.RegVal(c), body, exit)
	bd.SetBlock(body)
	bd.Br(head)
	bd.SetBlock(exit)
	bd.Ret(ir.ConstVal(0))
	prog := bd.Finish(entry)
	prog.Blocks[0].Instrs = append([]ir.Instr{{Op: ir.OpConst, Dst: 0, A: ir.ConstVal(100)}}, prog.Blocks[0].Instrs...)
	prog.Finalize()
	res := Solve[int64](prog, cfg.New(prog).Succs, minDomain{}, Options{WideningThreshold: 2})
	if res.Iterations > 100 {
		t.Errorf("iterations = %d, loop did not stabilize quickly", res.Iterations)
	}
	if res.In[3] != 100 {
		t.Errorf("exit state = %d, want 100", res.In[3])
	}
}

func TestUnreachableStaysBottom(t *testing.T) {
	bd := ir.NewBuilder("dead")
	entry := bd.NewBlock("entry")
	dead := bd.NewBlock("dead")
	bd.SetBlock(entry)
	bd.Ret(ir.ConstVal(0))
	bd.SetBlock(dead)
	bd.Ret(ir.ConstVal(1))
	prog := bd.Finish(entry)
	res := Solve[int64](prog, cfg.New(prog).Succs, minDomain{}, Options{})
	if res.In[dead] != math.MaxInt64 {
		t.Errorf("unreachable block state = %d, want bottom", res.In[dead])
	}
}
