package interp

import (
	"errors"
	"testing"

	"specabsint/internal/ir"
)

// buildProg creates: sum = 0; for i in 0..n-1: sum += arr[i]; return sum,
// using explicit IR (arr has 4 elements initialized 1,2,3,4).
func buildProg(t *testing.T) *ir.Program {
	t.Helper()
	bd := ir.NewBuilder("sum")
	arr := bd.AddSymbol("arr", 4, 4, false, []int64{1, 2, 3, 4})
	entry := bd.NewBlock("entry")
	head := bd.NewBlock("head")
	body := bd.NewBlock("body")
	exit := bd.NewBlock("exit")

	bd.SetBlock(entry)
	sum := bd.NewReg()
	i := bd.NewReg()
	bd.Mov(sum, ir.ConstVal(0))
	bd.Mov(i, ir.ConstVal(0))
	bd.Br(head)

	bd.SetBlock(head)
	c := bd.Binop(ir.OpCmpLt, ir.RegVal(i), ir.ConstVal(4))
	bd.CondBr(ir.RegVal(c), body, exit)

	bd.SetBlock(body)
	v := bd.Load(arr, ir.RegVal(i))
	s2 := bd.Binop(ir.OpAdd, ir.RegVal(sum), ir.RegVal(v))
	bd.Mov(sum, ir.RegVal(s2))
	i2 := bd.Binop(ir.OpAdd, ir.RegVal(i), ir.ConstVal(1))
	bd.Mov(i, ir.RegVal(i2))
	bd.Br(head)

	bd.SetBlock(exit)
	bd.Ret(ir.RegVal(sum))

	return bd.Finish(entry)
}

func TestRunLoop(t *testing.T) {
	m := NewMachine(buildProg(t))
	st, err := m.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ret != 10 {
		t.Errorf("sum = %d, want 10", st.Ret)
	}
}

func TestHooksObserveAccesses(t *testing.T) {
	m := NewMachine(buildProg(t))
	loads, branches := 0, 0
	m.Hooks = Hooks{
		OnMem:    func(in *ir.Instr, sym ir.SymbolID, elem int64, isStore bool) { loads++ },
		OnBranch: func(in *ir.Instr, taken bool) { branches++ },
	}
	if _, err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	if loads != 4 {
		t.Errorf("loads = %d, want 4", loads)
	}
	if branches != 5 {
		t.Errorf("branches = %d, want 5", branches)
	}
}

func TestStepLimit(t *testing.T) {
	bd := ir.NewBuilder("spin")
	entry := bd.NewBlock("entry")
	bd.SetBlock(entry)
	bd.Br(entry)
	prog := bd.Finish(entry)
	if _, err := NewMachine(prog).Run(100); !errors.Is(err, ErrStepLimit) {
		t.Errorf("err = %v, want step limit", err)
	}
}

func TestOutOfBounds(t *testing.T) {
	bd := ir.NewBuilder("oob")
	arr := bd.AddSymbol("arr", 4, 2, false, nil)
	entry := bd.NewBlock("entry")
	bd.SetBlock(entry)
	r := bd.Load(arr, ir.ConstVal(5))
	bd.Ret(ir.RegVal(r))
	prog := bd.Finish(entry)
	if _, err := NewMachine(prog).Run(100); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("err = %v, want out of bounds", err)
	}
}

func TestDivideByZero(t *testing.T) {
	bd := ir.NewBuilder("div0")
	entry := bd.NewBlock("entry")
	bd.SetBlock(entry)
	r := bd.Binop(ir.OpDiv, ir.ConstVal(1), ir.ConstVal(0))
	bd.Ret(ir.RegVal(r))
	prog := bd.Finish(entry)
	if _, err := NewMachine(prog).Run(100); !errors.Is(err, ErrDivideByZero) {
		t.Errorf("err = %v, want divide by zero", err)
	}
}

func TestCloneIsolation(t *testing.T) {
	m := NewMachine(buildProg(t))
	st := m.NewState()
	for j := 0; j < 3; j++ {
		if err := m.Step(st); err != nil {
			t.Fatal(err)
		}
	}
	clone := st.Clone()
	// Run the clone to completion; the original must be unaffected.
	if err := m.RunState(clone, 1000); err != nil {
		t.Fatal(err)
	}
	if !clone.Done || clone.Ret != 10 {
		t.Fatalf("clone: done=%v ret=%d", clone.Done, clone.Ret)
	}
	if st.Done {
		t.Error("original advanced by clone execution")
	}
	// Memory isolation: write into clone, original unchanged.
	clone.Mem[0][0] = 99
	if st.Mem[0][0] == 99 {
		t.Error("clone shares memory with original")
	}
	if err := m.RunState(st, 1000); err != nil {
		t.Fatal(err)
	}
	if st.Ret != 10 {
		t.Errorf("original ret = %d, want 10", st.Ret)
	}
}

func TestInitializerApplied(t *testing.T) {
	m := NewMachine(buildProg(t))
	st := m.NewState()
	want := []int64{1, 2, 3, 4}
	for i, v := range want {
		if st.Mem[0][i] != v {
			t.Errorf("mem[0][%d] = %d, want %d", i, st.Mem[0][i], v)
		}
	}
}

func TestAllBinops(t *testing.T) {
	cases := []struct {
		op      ir.Op
		a, b, r int64
	}{
		{ir.OpAdd, 3, 4, 7},
		{ir.OpSub, 3, 4, -1},
		{ir.OpMul, 3, 4, 12},
		{ir.OpDiv, 17, 5, 3},
		{ir.OpRem, 17, 5, 2},
		{ir.OpAnd, 12, 10, 8},
		{ir.OpOr, 12, 10, 14},
		{ir.OpXor, 12, 10, 6},
		{ir.OpShl, 1, 4, 16},
		{ir.OpShr, 16, 3, 2},
		{ir.OpCmpLt, 1, 2, 1},
		{ir.OpCmpLe, 2, 2, 1},
		{ir.OpCmpGt, 1, 2, 0},
		{ir.OpCmpGe, 2, 2, 1},
		{ir.OpCmpEq, 5, 5, 1},
		{ir.OpCmpNe, 5, 5, 0},
	}
	for _, tc := range cases {
		got, err := EvalBinop(tc.op, tc.a, tc.b)
		if err != nil {
			t.Fatalf("%s: %v", tc.op, err)
		}
		if got != tc.r {
			t.Errorf("%s(%d,%d) = %d, want %d", tc.op, tc.a, tc.b, got, tc.r)
		}
	}
}

func TestUnops(t *testing.T) {
	bd := ir.NewBuilder("unops")
	entry := bd.NewBlock("entry")
	bd.SetBlock(entry)
	a := bd.Unop(ir.OpNeg, ir.ConstVal(5))  // -5
	b := bd.Unop(ir.OpNot, ir.ConstVal(0))  // -1
	c := bd.Unop(ir.OpBool, ir.ConstVal(7)) // 1
	s1 := bd.Binop(ir.OpAdd, ir.RegVal(a), ir.RegVal(b))
	s2 := bd.Binop(ir.OpAdd, ir.RegVal(s1), ir.RegVal(c))
	bd.Ret(ir.RegVal(s2))
	prog := bd.Finish(entry)
	st, err := NewMachine(prog).Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ret != -5 {
		t.Errorf("got %d, want -5", st.Ret)
	}
}
