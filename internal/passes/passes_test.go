package passes_test

import (
	"errors"
	"strings"
	"testing"

	"specabsint/internal/ir"
	"specabsint/internal/lower"
	"specabsint/internal/machine"
	"specabsint/internal/passes"
	"specabsint/internal/source"
)

func compile(t *testing.T, src string) *ir.Program {
	t.Helper()
	ast, err := source.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := lower.Lower(ast, lower.DefaultOptions())
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return prog
}

// execute runs prog on the simulator with speculation off.
func execute(prog *ir.Program, maxSteps int64) (machine.Stats, error) {
	cfg := machine.DefaultConfig()
	cfg.DepthMiss, cfg.DepthHit, cfg.MaxSteps = 0, 0, maxSteps
	return machine.RunProgram(prog, cfg)
}

func run(t *testing.T, prog *ir.Program, opts passes.Options) *passes.Result {
	t.Helper()
	res, err := passes.Run(prog, opts)
	if err != nil {
		t.Fatalf("passes.Run: %v", err)
	}
	return res
}

// snapshotIDs captures the (block, index) -> instruction id layout so tests
// can assert passes never renumber or add/remove instructions.
func snapshotIDs(prog *ir.Program) []int {
	var ids []int
	for _, b := range prog.Blocks {
		for i := range b.Instrs {
			ids = append(ids, b.Instrs[i].ID)
		}
	}
	return ids
}

func TestResolveConstantBranch(t *testing.T) {
	prog := compile(t, `int main() {
		reg int x = 3;
		if (x < 5) { return 1; }
		return 2;
	}`)
	res := run(t, prog, passes.Default())
	if res.ResolvedBranches != 1 {
		t.Fatalf("ResolvedBranches = %d, want 1\n%s", res.ResolvedBranches, prog)
	}
	if got := prog.ResolvedBranchCount(); got != 1 {
		t.Fatalf("ResolvedBranchCount = %d, want 1", got)
	}
	if got := prog.CondBranchCount(); got != 0 {
		t.Fatalf("CondBranchCount = %d, want 0 (resolved branches cannot mispredict)", got)
	}
	st, err := execute(prog, 10_000)
	if err != nil || st.Ret != 1 {
		t.Fatalf("run: ret=%d err=%v, want 1", st.Ret, err)
	}
}

func TestFoldAndDCE(t *testing.T) {
	prog := compile(t, `int main() {
		reg int a = 2;
		reg int b = a + 3;
		return b;
	}`)
	before := snapshotIDs(prog)
	numInstrs := prog.NumInstrs
	res := run(t, prog, passes.Default())
	if res.FoldedOperands == 0 {
		t.Fatalf("expected folded operands\n%s", prog)
	}
	if !strings.Contains(prog.String(), "ret 5") {
		t.Fatalf("return value should fold to 5:\n%s", prog)
	}
	if res.NopsInserted == 0 {
		t.Fatalf("expected dead definitions to be nopped\n%s", prog)
	}
	if prog.NumInstrs != numInstrs {
		t.Fatalf("NumInstrs changed %d -> %d; passes must not add or remove instructions",
			numInstrs, prog.NumInstrs)
	}
	after := snapshotIDs(prog)
	if len(before) != len(after) {
		t.Fatalf("instruction count changed %d -> %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("instruction id at position %d changed %d -> %d", i, before[i], after[i])
		}
	}
}

func TestSecretNeverFolds(t *testing.T) {
	prog := compile(t, `secret int k;
	char ph[256];
	int main() {
		reg int t = ph[k & 255];
		if (k > 0) { t = ph[0]; }
		return t;
	}`)
	res := run(t, prog, passes.Default())
	if res.ResolvedBranches != 0 {
		t.Fatalf("secret-conditioned branch must not resolve\n%s", prog)
	}
	for _, b := range prog.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpLoad && prog.Symbol(in.Sym).Name == "ph" && in.Idx.IsConst && in.Idx.Const != 0 {
				t.Fatalf("secret-derived index folded to constant %d:\n%s", in.Idx.Const, prog)
			}
		}
	}
}

func TestInputParamNotFolded(t *testing.T) {
	prog := compile(t, `int main(int x) {
		if (x < 5) { return 1; }
		return 2;
	}`)
	res := run(t, prog, passes.Default())
	if res.ResolvedBranches != 0 {
		t.Fatalf("input-dependent branch must not resolve\n%s", prog)
	}
}

func TestRegInputNotFolded(t *testing.T) {
	// A `reg` variable without an initializer models an input read straight
	// from the register file; its value must never fold even though it is
	// concretely zero on a simulator run without register inputs.
	prog := compile(t, `int main() {
		reg int x;
		if (x < 5) { return 1; }
		return 2;
	}`)
	res := run(t, prog, passes.Default())
	if res.ResolvedBranches != 0 {
		t.Fatalf("input-register branch must not resolve\n%s", prog)
	}
}

func TestDeadDivisionByZeroKept(t *testing.T) {
	prog := compile(t, `int main() {
		reg int a = 1;
		reg int b = 0;
		reg int c = a / b;
		return 7;
	}`)
	run(t, prog, passes.Default())
	found := false
	for _, b := range prog.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpDiv {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("dead division by zero must not be eliminated (it faults at runtime):\n%s", prog)
	}
	if _, err := execute(prog, 10_000); !errors.Is(err, machine.ErrDivideByZero) {
		t.Fatalf("transformed program should still fault, got %v", err)
	}
}

func TestUnresolvedLoopUntouched(t *testing.T) {
	prog := compile(t, `int g;
	int main(int n) {
		reg int i = 0;
		while (i < n) { g = g + i; i = i + 1; }
		return g;
	}`)
	branches := prog.CondBranchCount()
	res := run(t, prog, passes.Default())
	if res.ResolvedBranches != 0 {
		t.Fatalf("input-bounded loop must not resolve\n%s", prog)
	}
	if got := prog.CondBranchCount(); got != branches {
		t.Fatalf("CondBranchCount changed %d -> %d", branches, got)
	}
}

func TestScalarGlobalThroughStore(t *testing.T) {
	// g starts at 1, is stored a constant 4 on the only path, and the
	// following branch on g reads the stored value: SCCP's scalar-memory
	// tracking resolves it.
	prog := compile(t, `int g = 1;
	int main() {
		g = 4;
		if (g > 2) { return 1; }
		return 2;
	}`)
	res := run(t, prog, passes.Default())
	if res.ResolvedBranches != 1 {
		t.Fatalf("stored-constant scalar branch should resolve, got %d\n%s", res.ResolvedBranches, prog)
	}
	st, err := execute(prog, 10_000)
	if err != nil || st.Ret != 1 {
		t.Fatalf("run: ret=%d err=%v, want 1", st.Ret, err)
	}
}

func TestCopyPropagation(t *testing.T) {
	// Hand-built block: r1 = input; r2 = mov r1; r3 = add r2, 1; ret r3.
	bd := ir.NewBuilder("cp")
	entry := bd.NewBlock("entry")
	bd.SetBlock(entry)
	r1 := bd.NewReg()
	bd.MarkInputReg(r1)
	r2 := bd.NewReg()
	bd.Mov(r2, ir.RegVal(r1))
	r3 := bd.Binop(ir.OpAdd, ir.RegVal(r2), ir.ConstVal(1))
	bd.Ret(ir.RegVal(r3))
	prog := bd.Finish(entry)
	res := run(t, prog, passes.Default())
	if res.FoldedOperands == 0 {
		t.Fatalf("expected copy-propagated operand\n%s", prog)
	}
	add := &prog.Blocks[0].Instrs[1]
	if add.Op != ir.OpAdd || add.A.IsConst || add.A.Reg != r1 {
		t.Fatalf("add should read %s directly, got %s", r1, prog.FormatInstr(add))
	}
}

// TestArchitecturalEquivalence runs a few programs to completion with and
// without the pipeline and requires identical return values: passes must
// preserve architectural semantics exactly.
func TestArchitecturalEquivalence(t *testing.T) {
	srcs := []string{
		`int main() { reg int x = 3; if (x < 5) { return x + 10; } return 2; }`,
		`int g = 1; int a[8] = {7, 6, 5, 4, 3, 2, 1, 0};
		 int main() { reg int s = 0; for (int i = 0; i < 8; i++) { s = s + a[i]; } if (g == 1) { s = s * 2; } return s; }`,
		`int f(int v) { return v * 3; }
		 int main() { reg int x = f(2); while (x > 0 && x < 100) { x = x * 2; } return x; }`,
		`int g; int main() { g = 5; g = g - 2; if (g == 3) { return g; } return -1; }`,
	}
	for _, src := range srcs {
		plain := compile(t, src)
		transformed := compile(t, src)
		run(t, transformed, passes.Default())
		st1, err1 := execute(plain, 1_000_000)
		st2, err2 := execute(transformed, 1_000_000)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("fault behavior diverged: %v vs %v\n%s", err1, err2, src)
		}
		if err1 == nil && st1.Ret != st2.Ret {
			t.Fatalf("return diverged: %d vs %d\nsource:\n%s\ntransformed:\n%s",
				st1.Ret, st2.Ret, src, transformed)
		}
	}
}
