package lower

import (
	"testing"

	"specabsint/internal/interp"
	"specabsint/internal/ir"
	"specabsint/internal/source"
)

// run compiles and executes src, returning main's result.
func run(t *testing.T, src string, opts Options) int64 {
	t.Helper()
	prog := compile(t, src, opts)
	m := interp.NewMachine(prog)
	st, err := m.Run(10_000_000)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return st.Ret
}

func compile(t *testing.T, src string, opts Options) *ir.Program {
	t.Helper()
	ast, err := source.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := Lower(ast, opts)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return prog
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int64
	}{
		{"constant", "int main() { return 42; }", 42},
		{"add", "int main() { int a = 3; int b = 4; return a + b; }", 7},
		{"precedence", "int main() { return 2 + 3 * 4; }", 14},
		{"division", "int main() { return 17 / 5; }", 3},
		{"modulo", "int main() { return 17 % 5; }", 2},
		{"negate", "int main() { int a = 5; return -a; }", -5},
		{"bitnot", "int main() { return ~0; }", -1},
		{"lognot", "int main() { return !7; }", 0},
		{"shifts", "int main() { return (1 << 10) >> 3; }", 128},
		{"bitops", "int main() { return (12 & 10) | (1 ^ 3); }", 10},
		{"compare", "int main() { return (3 < 4) + (4 <= 4) + (5 > 4) + (4 >= 5) + (1 == 1) + (1 != 1); }", 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := run(t, tc.src, Options{}); got != tc.want {
				t.Errorf("got %d, want %d", got, tc.want)
			}
		})
	}
}

func TestControlFlow(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int64
	}{
		{"if-then", "int main() { int x = 1; if (x > 0) { x = 10; } return x; }", 10},
		{"if-else", "int main() { int x = -1; if (x > 0) { x = 10; } else { x = 20; } return x; }", 20},
		{"while", "int main() { int i = 0; int s = 0; while (i < 5) { s += i; i++; } return s; }", 10},
		{"for", "int main() { int s = 0; for (int i = 1; i <= 4; i++) { s += i; } return s; }", 10},
		{"break", "int main() { int i = 0; while (1) { if (i == 3) break; i++; } return i; }", 3},
		{"continue", "int main() { int s = 0; for (int i = 0; i < 10; i++) { if (i % 2 == 1) continue; s += i; } return s; }", 20},
		{"nested", "int main() { int s = 0; for (int i = 0; i < 3; i++) { for (int j = 0; j < 3; j++) { s += i * j; } } return s; }", 9},
		{"early-return", "int main() { for (int i = 0; i < 10; i++) { if (i == 4) return i; } return -1; }", 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := run(t, tc.src, Options{}); got != tc.want {
				t.Errorf("got %d, want %d", got, tc.want)
			}
		})
	}
}

func TestShortCircuit(t *testing.T) {
	// The right operand of && must not execute when the left is false:
	// here the right operand would divide by zero.
	src := `
	int main() {
		int z = 0;
		int ok = 0;
		if (z != 0 && 10 / z > 1) { ok = 1; }
		if (z == 0 || 10 / z > 1) { ok = ok + 2; }
		return ok;
	}`
	if got := run(t, src, Options{}); got != 2 {
		t.Errorf("got %d, want 2", got)
	}
}

func TestShortCircuitAsValue(t *testing.T) {
	src := `int main() { int a = 5; int v = (a > 1 && a < 10); int w = (a < 1 || a == 5); return v * 10 + w; }`
	if got := run(t, src, Options{}); got != 11 {
		t.Errorf("got %d, want 11", got)
	}
}

func TestArrays(t *testing.T) {
	src := `
	int tbl[8] = {7, 6, 5, 4, 3, 2, 1, 0};
	int main() {
		int s = 0;
		for (int i = 0; i < 8; i++) { s += tbl[i] * i; }
		tbl[0] = 100;
		return s + tbl[0];
	}`
	if got := run(t, src, Options{}); got != 156 {
		t.Errorf("got %d, want 156", got)
	}
}

func TestLocalArray(t *testing.T) {
	src := `
	int main() {
		int a[4] = {1, 2, 3, 4};
		int s = 0;
		for (int i = 0; i < 4; i++) { s += a[i]; }
		return s;
	}`
	if got := run(t, src, Options{}); got != 10 {
		t.Errorf("got %d, want 10", got)
	}
}

func TestInlining(t *testing.T) {
	src := `
	int sq(int x) { return x * x; }
	int add(int a, int b) { return a + b; }
	int main() { return add(sq(3), sq(4)); }`
	if got := run(t, src, Options{}); got != 25 {
		t.Errorf("got %d, want 25", got)
	}
}

func TestInliningPreservesLocals(t *testing.T) {
	// Two inlined copies of f must not share their local x.
	src := `
	int g;
	int f(int n) { int x = n * 2; g = g + x; return x; }
	int main() { g = 0; int a = f(1); int b = f(10); return g * 100 + a + b; }`
	if got := run(t, src, Options{}); got != 2222 {
		t.Errorf("got %d, want 2222", got)
	}
}

func TestVoidFunction(t *testing.T) {
	src := `
	int g;
	void bump() { g = g + 1; }
	int main() { g = 40; bump(); bump(); return g; }`
	if got := run(t, src, Options{}); got != 42 {
		t.Errorf("got %d, want 42", got)
	}
}

func TestMyAbsFromPaper(t *testing.T) {
	src := `
	int my_abs(int x) { if (x < 0) { return -x; } return x; }
	int main() { return my_abs(-7) + my_abs(7); }`
	if got := run(t, src, Options{}); got != 14 {
		t.Errorf("got %d, want 14", got)
	}
}

func TestRegVariablesGenerateNoMemoryTraffic(t *testing.T) {
	src := `
	int main() {
		reg int i;
		reg int s;
		s = 0;
		for (i = 0; i < 100; i++) { s += i; }
		return s;
	}`
	prog := compile(t, src, Options{MaxUnroll: 1}) // keep the loop
	if n := prog.MemAccessCount(); n != 0 {
		t.Errorf("reg-only program has %d memory accesses, want 0", n)
	}
	m := interp.NewMachine(prog)
	st, err := m.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ret != 4950 {
		t.Errorf("got %d, want 4950", st.Ret)
	}
}

func TestMemoryVariablesGenerateTraffic(t *testing.T) {
	src := `int main() { int x = 1; int y = x + 1; return y; }`
	prog := compile(t, src, Options{})
	if n := prog.MemAccessCount(); n == 0 {
		t.Error("memory-resident locals should produce loads/stores")
	}
}

func TestUnrollingRemovesBranches(t *testing.T) {
	src := `
	int a[16];
	int main() {
		int s = 0;
		for (int i = 0; i < 16; i++) { s += a[i]; }
		return s;
	}`
	unrolled := compile(t, src, Options{MaxUnroll: 64})
	looped := compile(t, src, Options{MaxUnroll: 1})
	if ub, lb := unrolled.CondBranchCount(), looped.CondBranchCount(); ub >= lb {
		t.Errorf("unrolled has %d cond branches, looped has %d", ub, lb)
	}
	// Behavior must be identical.
	m1, _ := interp.NewMachine(unrolled).Run(1_000_000)
	m2, _ := interp.NewMachine(looped).Run(1_000_000)
	if m1.Ret != m2.Ret {
		t.Errorf("unrolled result %d != looped result %d", m1.Ret, m2.Ret)
	}
}

func TestUnrollingSkipsBreakLoops(t *testing.T) {
	src := `
	int a[8];
	int main() {
		int found = -1;
		for (int i = 0; i < 8; i++) { if (a[i] == 0) { found = i; break; } }
		return found;
	}`
	prog := compile(t, src, Options{MaxUnroll: 64})
	// The loop must survive (a back edge exists): look for a branch whose
	// target has a smaller id than its source, which unrolled code lacks.
	hasBackEdge := false
	for _, b := range prog.Blocks {
		for _, s := range b.Succs() {
			if s <= b.ID {
				hasBackEdge = true
			}
		}
	}
	if !hasBackEdge {
		t.Error("loop with break was unrolled")
	}
	m, err := interp.NewMachine(prog).Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Ret != 0 {
		t.Errorf("got %d, want 0", m.Ret)
	}
}

func TestUnrollDecrementingLoop(t *testing.T) {
	src := `int main() { int s = 0; for (int i = 10; i > 0; i -= 2) { s += i; } return s; }`
	if got := run(t, src, Options{MaxUnroll: 64}); got != 30 {
		t.Errorf("got %d, want 30", got)
	}
	if got := run(t, src, Options{MaxUnroll: 1}); got != 30 {
		t.Errorf("looped: got %d, want 30", got)
	}
}

func TestUnrollGeLoop(t *testing.T) {
	src := `int main() { int s = 0; for (int i = 5; i >= 1; i--) { s += i; } return s; }`
	if got := run(t, src, Options{MaxUnroll: 64}); got != 15 {
		t.Errorf("got %d, want 15", got)
	}
}

func TestUnrollLeLoop(t *testing.T) {
	src := `int main() { int s = 0; for (int i = 0; i <= 5; i++) { s += i; } return s; }`
	if got := run(t, src, Options{MaxUnroll: 64}); got != 15 {
		t.Errorf("got %d, want 15", got)
	}
}

func TestUnrollRespectsCap(t *testing.T) {
	src := `int main() { int s = 0; for (int i = 0; i < 100; i++) { s += 1; } return s; }`
	prog := compile(t, src, Options{MaxUnroll: 10})
	hasBackEdge := false
	for _, b := range prog.Blocks {
		for _, s := range b.Succs() {
			if s <= b.ID {
				hasBackEdge = true
			}
		}
	}
	if !hasBackEdge {
		t.Error("loop above cap was unrolled")
	}
}

func TestGlobalScalarInitializer(t *testing.T) {
	src := `int g = 41; int main() { return g + 1; }`
	if got := run(t, src, Options{}); got != 42 {
		t.Errorf("got %d, want 42", got)
	}
}

func TestSecretSymbolPropagates(t *testing.T) {
	src := `secret int key; int main() { return key; }`
	prog := compile(t, src, Options{})
	if !prog.SymbolByName("key").Secret {
		t.Error("secret qualifier lost in lowering")
	}
}

func TestQuantlEndToEnd(t *testing.T) {
	src := `
	int decis_levl[30] = { 280,576,880,1200,1520,1864,2208,2584,2960,3376,
		3784,4240,4696,5200,5712,6288,6864,7520,8184,8968,9752,10712,11664,
		12896,14120,15840,17560,20456,23352,32767 };
	int quant26bt_pos[31] = { 61,60,59,58,57,56,55,54,53,52,51,50,49,48,47,
		46,45,44,43,42,41,40,39,38,37,36,35,34,33,32,32 };
	int quant26bt_neg[31] = { 63,62,31,30,29,28,27,26,25,24,23,22,21,20,19,
		18,17,16,15,14,13,12,11,10,9,8,7,6,5,4,4 };
	int my_abs(int x) { if (x < 0) { return -x; } return x; }
	int quantl(int el, int detl) {
		int ril; int mil;
		long wd; long decis;
		wd = my_abs(el);
		for (mil = 0; mil < 30; mil++) {
			decis = (decis_levl[mil] * (long)detl) >> 15;
			if (wd <= decis) break;
		}
		if (el >= 0) { ril = quant26bt_pos[mil]; }
		else { ril = quant26bt_neg[mil]; }
		return ril;
	}
	int main() { return quantl(100, 32767) * 1000 + quantl(-3000, 32767); }`
	// quantl(100, 32767): wd=100, decis[0] = 280*32767>>15 = 279 -> break at
	// mil=0, el>=0 -> pos[0] = 61.
	// quantl(-3000, 32767): wd=3000, decis grows 279,575,...; 3375>=3000 at
	// mil=9 (decis_levl[9]=3376 -> 3375) -> neg[9] = 24.
	if got := run(t, src, Options{}); got != 61024 {
		t.Errorf("got %d, want 61024", got)
	}
}
