package irverify_test

import (
	"errors"
	"testing"

	"specabsint/internal/irverify"
	"specabsint/internal/lower"
	"specabsint/internal/source"
)

// FuzzVerify asserts that lowering is closed over the verifier's invariants:
// any source program the front end accepts must lower to IR that verifies
// clean. Lower runs the verifier on its output, so a violation surfaces as
// a Lower error wrapping an *irverify.Error, which this harness reports;
// any other lowering error (a front-end rejection) ends the input. The test
// lives in an external package because lower itself imports irverify.
func FuzzVerify(f *testing.F) {
	for _, seed := range []string{
		"int main() { return 0; }",
		"int main(int x) { reg int y; return x + y; }",
		"secret int k;\nchar ph[256];\nint main() {\nreg int t;\nt = ph[k & 255];\nreturn t;\n}\n",
		"int a[4] = { 3, 1, 4, 1 };\nint main(int x) {\nfor (int i = 0; i < 4; i++) {\nif (a[i] == x) { return i; }\n}\nreturn -1;\n}\n",
		"int g;\nint f(int v) { return v * 2; }\nint main(int n) {\nreg int i;\ni = 0;\nwhile (i < n && g < 100) { g = g + f(i); i = i + 1; }\nreturn g;\n}\n",
		"int main(int a, int b) { if (a > 0 || b > 0) { return 1; } return 0; }",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			t.Skip("oversized input")
		}
		prog, err := source.Parse(src)
		if err != nil {
			return
		}
		opts := lower.DefaultOptions()
		opts.MaxUnroll = 64 // explore program shapes, not giant unrollings
		_, err = lower.Lower(prog, opts)
		var verr *irverify.Error
		if errors.As(err, &verr) {
			t.Fatalf("lowered program failed verification:\n%v\nsource:\n%s", verr, src)
		}
	})
}
