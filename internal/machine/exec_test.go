package machine

import (
	"errors"
	"testing"

	"specabsint/internal/ir"
)

// noSpeculation is DefaultConfig with no wrong paths and a step budget.
func noSpeculation(maxSteps int64) Config {
	cfg := DefaultConfig()
	cfg.DepthMiss, cfg.DepthHit = 0, 0
	cfg.MaxSteps = maxSteps
	return cfg
}

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
	stats, err := RunProgram(buildProg(t), noSpeculation(1000))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ret != 10 {
		t.Errorf("sum = %d, want 10", stats.Ret)
	}
}

func TestHooksObserveAccesses(t *testing.T) {
	sim, err := New(buildProg(t), noSpeculation(1000))
	if err != nil {
		t.Fatal(err)
	}
	loads := 0
	sim.OnAccess = func(AccessRecord) { loads++ }
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if loads != 4 {
		t.Errorf("loads = %d, want 4", loads)
	}
	if sim.Stats.Branches != 5 {
		t.Errorf("branches = %d, want 5", sim.Stats.Branches)
	}
}

func TestStepLimit(t *testing.T) {
	bd := ir.NewBuilder("spin")
	entry := bd.NewBlock("entry")
	bd.SetBlock(entry)
	bd.Br(entry)
	prog := bd.Finish(entry)
	if _, err := RunProgram(prog, noSpeculation(100)); !errors.Is(err, ErrStepLimit) {
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
	if _, err := RunProgram(prog, noSpeculation(100)); !errors.Is(err, ErrOutOfBounds) {
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
	if _, err := RunProgram(prog, noSpeculation(100)); !errors.Is(err, ErrDivideByZero) {
		t.Errorf("err = %v, want divide by zero", err)
	}
}

// TestCloneIsolation runs a checkpoint of a state part-way through the
// program to completion: the original state must neither advance nor see
// the checkpoint's memory writes, and must still finish with the same
// result.
func TestCloneIsolation(t *testing.T) {
	sim, err := New(buildProg(t), noSpeculation(1000))
	if err != nil {
		t.Fatal(err)
	}
	finish := func(st *state) {
		for !st.done {
			if err := sim.step(st, sim.instr(st), false); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, err := sim.newState()
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		if err := sim.step(st, sim.instr(st), false); err != nil {
			t.Fatal(err)
		}
	}
	clone := st.clone()
	finish(clone)
	if sim.Stats.Ret != 10 {
		t.Fatalf("clone: ret=%d", sim.Stats.Ret)
	}
	if st.done {
		t.Error("original advanced by clone execution")
	}
	clone.mem[0][0] = 99
	if st.mem[0][0] == 99 {
		t.Error("clone shares memory with original")
	}
	sim.Stats.Ret = 0
	finish(st)
	if sim.Stats.Ret != 10 {
		t.Errorf("original ret = %d, want 10", sim.Stats.Ret)
	}
}

func TestInitializerApplied(t *testing.T) {
	sim, err := New(buildProg(t), noSpeculation(1000))
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.newState()
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 2, 3, 4}
	for i, v := range want {
		if st.mem[0][i] != v {
			t.Errorf("mem[0][%d] = %d, want %d", i, st.mem[0][i], v)
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
	stats, err := RunProgram(prog, noSpeculation(100))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ret != -5 {
		t.Errorf("got %d, want -5", stats.Ret)
	}
}

// resolvedProg builds a program whose entry branch on a constant 0 goes to
// x (return 0) and whose other arm w holds a branch on the same 0 that the
// pass pipeline resolved toward p (with direction takenTrue): p loads
// arr[0] and returns 1, q loads arr[16] and returns 2. Execution only
// reaches w on a wrong path.
func resolvedProg(t *testing.T, takenTrue bool) (prog *ir.Program, pLoad, qLoad int) {
	t.Helper()
	bd := ir.NewBuilder("resolved")
	arr := bd.AddSymbol("arr", 4, 32, false, nil)
	entry, w, p, q, x := bd.NewBlock("entry"), bd.NewBlock("w"), bd.NewBlock("p"), bd.NewBlock("q"), bd.NewBlock("x")
	bd.SetBlock(entry)
	zero := bd.Const(0)
	bd.CondBr(ir.RegVal(zero), w, x)
	bd.SetBlock(w)
	bd.CondBr(ir.RegVal(zero), p, q)
	bd.SetBlock(p)
	bd.Load(arr, ir.ConstVal(0))
	bd.Ret(ir.ConstVal(1))
	bd.SetBlock(q)
	bd.Load(arr, ir.ConstVal(16))
	bd.Ret(ir.ConstVal(2))
	bd.SetBlock(x)
	bd.Ret(ir.ConstVal(0))
	prog = bd.Finish(entry)
	br := prog.Blocks[w].Terminator()
	br.Resolved, br.TakenTrue = true, takenTrue
	return prog, prog.Blocks[p].Instrs[0].ID, prog.Blocks[q].Instrs[0].ID
}

// TestResolvedBranch checks that a resolved branch is an unconditional
// jump: a wrong path follows its recorded direction whatever its condition
// says, it is never predicted, and architecturally an outcome that
// disagrees with the recorded direction is an error.
func TestResolvedBranch(t *testing.T) {
	for _, takenTrue := range []bool{true, false} {
		prog, pLoad, qLoad := resolvedProg(t, takenTrue)
		cfg := DefaultConfig()
		cfg.ForceMispredict = true
		sim, err := New(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var loads []int
		sim.OnAccess = func(r AccessRecord) {
			if r.Speculative {
				loads = append(loads, r.InstrID)
			}
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		want := qLoad
		if takenTrue {
			want = pLoad
		}
		if len(loads) != 1 || loads[0] != want {
			t.Errorf("TakenTrue=%v: wrong-path loads %v, want [%d]", takenTrue, loads, want)
		}
		if sim.Stats.Branches != 1 || sim.Stats.Ret != 0 {
			t.Errorf("TakenTrue=%v: %d branches predicted, ret %d; want 1 and 0", takenTrue, sim.Stats.Branches, sim.Stats.Ret)
		}
	}

	// Architecturally, the resolved branch's condition 0 goes to q.
	bd := ir.NewBuilder("tripwire")
	entry, p, q := bd.NewBlock("entry"), bd.NewBlock("p"), bd.NewBlock("q")
	bd.SetBlock(entry)
	bd.CondBr(ir.RegVal(bd.Const(0)), p, q)
	bd.SetBlock(p)
	bd.Ret(ir.ConstVal(1))
	bd.SetBlock(q)
	bd.Ret(ir.ConstVal(2))
	prog := bd.Finish(entry)
	br := prog.Blocks[entry].Terminator()
	br.Resolved = true
	if stats, err := RunProgram(prog, DefaultConfig()); err != nil || stats.Ret != 2 || stats.Branches != 0 {
		t.Errorf("agreeing resolved branch: ret %d, %d branches, err %v; want 2, 0, nil", stats.Ret, stats.Branches, err)
	}
	br.TakenTrue = true
	if _, err := RunProgram(prog, DefaultConfig()); err == nil {
		t.Error("resolved branch against its architectural outcome: want an error")
	}
}
