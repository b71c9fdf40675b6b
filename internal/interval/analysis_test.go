package interval

import (
	"testing"

	"specabsint/internal/cfg"
	"specabsint/internal/ir"
	"specabsint/internal/lower"
	"specabsint/internal/source"
)

func analyze(t *testing.T, src string, maxUnroll int) (*ir.Program, *Result) {
	t.Helper()
	ast, err := source.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.Lower(ast, lower.Options{MaxUnroll: maxUnroll})
	if err != nil {
		t.Fatal(err)
	}
	return prog, Analyze(prog, cfg.EffectiveWTO(prog))
}

// memInstrs returns all Load/Store instructions touching the named symbol.
func memInstrs(prog *ir.Program, symName string) []*ir.Instr {
	sym := prog.SymbolByName(symName)
	var out []*ir.Instr
	for _, b := range prog.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if (in.Op == ir.OpLoad || in.Op == ir.OpStore) && in.Sym == sym.ID {
				out = append(out, in)
			}
		}
	}
	return out
}

func TestUnrolledLoopHasSingletonIndices(t *testing.T) {
	prog, res := analyze(t, `
		int a[32];
		int main() {
			int s = 0;
			for (int i = 0; i < 32; i++) { s += a[i]; }
			return s;
		}`, 64)
	loads := memInstrs(prog, "a")
	if len(loads) != 32 {
		t.Fatalf("found %d loads of a, want 32", len(loads))
	}
	for n, in := range loads {
		iv := res.IndexOf(in)
		if !iv.IsSingle() {
			t.Fatalf("load %d index interval %v, want singleton", n, iv)
		}
		if iv.Lo != int64(n) {
			t.Errorf("load %d reads a[%d], want a[%d]", n, iv.Lo, n)
		}
	}
}

func TestLoopedIndexIsBounded(t *testing.T) {
	prog, res := analyze(t, `
		int a[32];
		int main() {
			int s = 0;
			for (int i = 0; i < 32; i++) { s += a[i]; }
			return s;
		}`, 1) // keep the loop; widening must kick in
	loads := memInstrs(prog, "a")
	if len(loads) != 1 {
		t.Fatalf("found %d loads, want 1", len(loads))
	}
	iv := res.IndexOf(loads[0])
	if iv.Lo < 0 || iv.Lo > 0 {
		t.Errorf("index lower bound = %d, want 0", iv.Lo)
	}
	// Without branch refinement the upper bound is widened to +inf; the
	// consumer clamps to the array. It must still contain all real indices.
	for i := int64(0); i < 32; i++ {
		if !iv.Contains(i) {
			t.Errorf("interval %v misses index %d", iv, i)
		}
	}
}

func TestMaskedIndexStaysPrecise(t *testing.T) {
	prog, res := analyze(t, `
		int sbox[256];
		int main(int k) {
			return sbox[k & 255];
		}`, 1)
	loads := memInstrs(prog, "sbox")
	iv := res.IndexOf(loads[0])
	if iv.Lo != 0 || iv.Hi != 255 {
		t.Errorf("masked index = %v, want [0,255]", iv)
	}
}

func TestSecretScalarIsTop(t *testing.T) {
	prog, res := analyze(t, `
		secret int key;
		int tbl[16];
		int main() { return tbl[key]; }`, 1)
	loads := memInstrs(prog, "tbl")
	iv := res.IndexOf(loads[0])
	if !iv.IsTop() {
		t.Errorf("secret-driven index = %v, want top", iv)
	}
}

func TestInitializedGlobalIsSingleton(t *testing.T) {
	prog, res := analyze(t, `
		int idx = 3;
		int tbl[16];
		int main() { return tbl[idx]; }`, 1)
	loads := memInstrs(prog, "tbl")
	iv := res.IndexOf(loads[0])
	if !iv.IsSingle() || iv.Lo != 3 {
		t.Errorf("index = %v, want {3}", iv)
	}
}

func TestConstIndexNeedsNoEntry(t *testing.T) {
	prog, res := analyze(t, `
		int tbl[16];
		int main() { return tbl[7]; }`, 1)
	loads := memInstrs(prog, "tbl")
	iv := res.IndexOf(loads[0])
	if !iv.IsSingle() || iv.Lo != 7 {
		t.Errorf("const index = %v, want {7}", iv)
	}
}

func TestNoBranchRefinement(t *testing.T) {
	// Inside `if (k < 4)` a refining analysis would bound k; ours must not,
	// because the branch may be mis-speculated.
	prog, res := analyze(t, `
		int tbl[16];
		int main(int k) {
			if (k < 4) { return tbl[k]; }
			return 0;
		}`, 1)
	loads := memInstrs(prog, "tbl")
	iv := res.IndexOf(loads[0])
	if !iv.Contains(10) {
		t.Errorf("interval %v excludes values the speculative path can see", iv)
	}
}

func TestScalarFlowThroughMemory(t *testing.T) {
	prog, res := analyze(t, `
		int tbl[64];
		int main() {
			int a = 5;
			int b = a + 2;
			return tbl[b];
		}`, 1)
	loads := memInstrs(prog, "tbl")
	iv := res.IndexOf(loads[0])
	if !iv.IsSingle() || iv.Lo != 7 {
		t.Errorf("index through memory = %v, want {7}", iv)
	}
}

func TestAnalysisTerminatesOnNestedLoops(t *testing.T) {
	_, res := analyze(t, `
		int a[8];
		int main() {
			int s = 0;
			for (int i = 0; i < 100; i++) {
				int j = 0;
				while (j < i) { s += a[j % 8]; j++; }
			}
			return s;
		}`, 1)
	if res.Iterations <= 0 || res.Iterations > 10000 {
		t.Errorf("iterations = %d", res.Iterations)
	}
}

func TestCompareProducesSingletonWhenDecided(t *testing.T) {
	prog, res := analyze(t, `
		int tbl[4];
		int main() {
			int a = 1;
			int c = (a < 2);
			return tbl[c];
		}`, 1)
	loads := memInstrs(prog, "tbl")
	iv := res.IndexOf(loads[0])
	if !iv.IsSingle() || iv.Lo != 1 {
		t.Errorf("decided compare = %v, want {1}", iv)
	}
}
