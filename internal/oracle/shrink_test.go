package oracle

import (
	"math/rand"
	"strings"
	"testing"

	"specabsint/internal/gen"
	"specabsint/internal/runner"
)

// balanced reports whether every brace in src closes at or above depth 0.
func balanced(src string) bool {
	depth := 0
	for _, l := range splitLines(src) {
		d, min := braceDelta(l)
		if depth+min < 0 {
			return false
		}
		depth += d
	}
	return depth == 0
}

// TestShrinkPreservesKeep: whatever Shrink returns must satisfy keep, and
// every candidate it proposed along the way must have been brace-balanced.
func TestShrinkPreservesKeep(t *testing.T) {
	src := gen.Program(rand.New(rand.NewSource(2)), gen.Secrets())
	keep := func(s string) bool {
		if !balanced(s) {
			t.Errorf("Shrink proposed an unbalanced candidate:\n%s", s)
		}
		return strings.Contains(s, "sec")
	}
	out := Shrink(src, keep)
	if !keep(out) {
		t.Fatalf("Shrink returned a candidate keep rejects:\n%s", out)
	}
	if len(splitLines(out)) > len(splitLines(src)) {
		t.Fatalf("Shrink grew the program: %d -> %d lines", len(splitLines(src)), len(splitLines(out)))
	}
}

// TestShrinkReducesToCore: with keep = "compiles and still contains the
// secret access", a generated program must shrink to a handful of lines —
// the bound the acceptance criterion puts on reproducers.
func TestShrinkReducesToCore(t *testing.T) {
	compiles := func(s string) bool {
		_, _, err := runner.Compile(s, 0, false)
		return err == nil
	}
	for seed := int64(1); seed <= 5; seed++ {
		src := gen.Program(rand.New(rand.NewSource(seed)), gen.Secrets())
		keep := func(s string) bool {
			return compiles(s) && strings.Contains(s, "sec & ")
		}
		out := Shrink(src, keep)
		if !keep(out) {
			t.Fatalf("seed %d: shrunk program no longer satisfies keep:\n%s", seed, out)
		}
		if n := len(splitLines(out)); n > 10 {
			t.Errorf("seed %d: shrunk to %d lines, want <= 10:\n%s", seed, n, out)
		}
	}
}

// TestShrinkIrreducible: when nothing can be removed, the input comes back
// unchanged (modulo the trailing newline Shrink normalizes).
func TestShrinkIrreducible(t *testing.T) {
	src := "int g0 = 1;\nint main(int inp) {\nreturn g0;\n}\n"
	out := Shrink(src, func(s string) bool { return s == src })
	if out != src {
		t.Fatalf("irreducible program changed:\n%s", out)
	}
}

// TestShrinkFlattensBlocks: a marker buried three blocks deep surfaces with
// the wrappers removed.
func TestShrinkFlattensBlocks(t *testing.T) {
	src := "int g0 = 0;\nint main(int inp) {\nif (inp > 0) {\nfor (int i = 0; i < 3; i++) {\nif (g0 == 0) {\ng0 = 7;\n}\n}\n}\nreturn g0;\n}\n"
	compiles := func(s string) bool {
		_, _, err := runner.Compile(s, 0, false)
		return err == nil
	}
	out := Shrink(src, func(s string) bool {
		return compiles(s) && strings.Contains(s, "g0 = 7;")
	})
	for _, gone := range []string{"if", "for"} {
		if strings.Contains(out, gone) {
			t.Errorf("wrapper %q survived shrinking:\n%s", gone, out)
		}
	}
	if !strings.Contains(out, "g0 = 7;") {
		t.Fatalf("marker lost:\n%s", out)
	}
}
