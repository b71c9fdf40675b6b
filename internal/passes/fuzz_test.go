package passes

import (
	"errors"
	"testing"

	"specabsint/internal/ir"
	"specabsint/internal/lower"
	"specabsint/internal/machine"
	"specabsint/internal/source"
)

// FuzzPasses checks the pass pipeline on any program the front end accepts:
// the transformed program verifies, computes the same return value or
// faults the same way as the untransformed one, and leaves DCE at its
// fixpoint, so one more round nops nothing.
func FuzzPasses(f *testing.F) {
	for _, seed := range []string{
		"int main() { return 0; }",
		"int main(int x) { reg int y; return x + y; }",
		"secret int k;\nchar ph[256];\nint main() {\nreg int t;\nt = ph[k & 255];\nreturn t;\n}\n",
		"int a[4] = { 3, 1, 4, 1 };\nint main(int x) {\nfor (int i = 0; i < 4; i++) {\nif (a[i] == x) { return i; }\n}\nreturn -1;\n}\n",
		"int g;\nint f(int v) { return v * 2; }\nint main(int n) {\nreg int i;\ni = 0;\nwhile (i < n && g < 100) { g = g + f(i); i = i + 1; }\nreturn g;\n}\n",
		"int main(int a, int b) { if (a > 0 || b > 0) { return 1; } return 0; }",
		"int main() { reg int x = 3; if (x < 5) { return x + 10; } return 2; }",
		"int g = 1; int a[8] = {7, 6, 5, 4, 3, 2, 1, 0};\nint main() { reg int s = 0; for (int i = 0; i < 8; i++) { s = s + a[i]; } if (g == 1) { s = s * 2; } return s; }",
		"int f(int v) { return v * 3; }\nint main() { reg int x = f(2); while (x > 0 && x < 100) { x = x * 2; } return x; }",
		"int g; int main() { g = 5; g = g - 2; if (g == 3) { return g; } return -1; }",
		"int main(int n) { reg int x; x = n + 1; if (n > 0) { reg int y; y = x * 2; } return 0; }",
		"int g;\nint main() {\nreg int x;\nreg int i = 0;\nwhile (i < 3) { g = x; x = x + 1; i = i + 1; }\nreturn g;\n}\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			t.Skip("oversized input")
		}
		ast, err := source.Parse(src)
		if err != nil {
			return
		}
		opts := lower.DefaultOptions()
		opts.MaxUnroll = 64 // explore program shapes, not giant unrollings
		plain, err := lower.Lower(ast, opts)
		if err != nil {
			return
		}
		prog, err := lower.Lower(ast, opts)
		if err != nil {
			t.Fatalf("second lowering failed: %v", err)
		}
		// Run's only failure is its closing irverify check.
		if _, err := Run(prog, Default()); err != nil {
			t.Fatalf("transformed program failed verification:\n%v\nsource:\n%s", err, src)
		}
		execute := func(p *ir.Program) (machine.Stats, error) {
			cfg := machine.DefaultConfig()
			cfg.DepthMiss, cfg.DepthHit, cfg.MaxSteps = 0, 0, 200_000
			return machine.RunProgram(p, cfg)
		}
		want, wantErr := execute(plain)
		got, gotErr := execute(prog)
		if fault(wantErr) != fault(gotErr) {
			t.Fatalf("fault changed: %v -> %v\nsource:\n%s\ntransformed:\n%s", wantErr, gotErr, src, prog)
		}
		if wantErr == nil && want.Ret != got.Ret {
			t.Fatalf("return changed: %d -> %d\nsource:\n%s\ntransformed:\n%s", want.Ret, got.Ret, src, prog)
		}
		if n, _ := dceRound(prog); n != 0 {
			t.Fatalf("another DCE round nopped %d instructions\nsource:\n%s", n, src)
		}
	})
}

// fault names the simulator error a run ended in, "" for none.
func fault(err error) string {
	for _, e := range []error{machine.ErrDivideByZero, machine.ErrOutOfBounds, machine.ErrStepLimit} {
		if errors.Is(err, e) {
			return e.Error()
		}
	}
	if err != nil {
		return "other: " + err.Error()
	}
	return ""
}
